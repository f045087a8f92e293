package usage

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// Record is the compact inter-site exchange unit: the combined usage of one
// user at one site over one histogram interval.
type Record struct {
	// User is the grid user identity.
	User string
	// Site is the reporting site.
	Site string
	// IntervalStart is the start of the histogram bin.
	IntervalStart time.Time
	// CoreSeconds is the combined usage in the interval.
	CoreSeconds float64
}

// numStripes is the lock-striping factor. Mutations touch exactly one
// stripe (a user's bins always live in one stripe), so up to numStripes
// writers proceed in parallel; whole-histogram reads acquire every stripe
// in index order for a read-consistent view.
const numStripes = 64

// bin is one (interval start, core-seconds) cell of a user's histogram.
type bin struct {
	start int64 // bin start, unix seconds, width-aligned
	v     float64
}

// userBins is one user's accounting state. It lives inside a stripe and is
// guarded by that stripe's lock.
type userBins struct {
	// bins is sorted ascending by start. Usage arrives roughly in time
	// order, so inserts are append-mostly; out-of-order inserts shift.
	bins []bin
	// total is the running undecayed sum — Total() in O(1).
	total float64
	// exp is the incremental decayed state under the histogram's tracker
	// (see incremental.go).
	exp expState
	// marked is set while the user sits in its stripe's change list, so a
	// user mutated many times between two cursor passes is listed once.
	marked bool
	// slot is the user's entry in its stripe's newest-bin column while the
	// column is attached. It sits in what was padding: the struct keeps its
	// 64-byte size class.
	slot int32
}

// newestEntry is one user's entry in a stripe's newest-bin column.
type newestEntry struct {
	start int64 // the user's newest bin start, unix seconds
	name  string
}

// lastStart returns the newest bin start (only valid when bins is non-empty).
func (u *userBins) lastStart() int64 { return u.bins[len(u.bins)-1].start }

// recomputeTotal re-sums the bins in sorted order, resetting any drift the
// running total may have picked up.
func (u *userBins) recomputeTotal() {
	var sum float64
	for _, b := range u.bins {
		sum += b.v
	}
	u.total = sum
}

// stripe is one lock shard: a mutex plus the users hashed onto it.
type stripe struct {
	mu    sync.RWMutex
	users map[string]*userBins
	// changed lists the users whose bins really changed since the change
	// cursor last passed; clamped lists those whose newest bin started after
	// that pass's `now` (see cursor.go). Both stay empty until a cursor
	// attaches.
	changed []string
	clamped []string
	// newest is the newest-bin column RecordsSince scans: one entry per
	// user, at the user's slot, kept current by every mutation once indexed
	// is set. Both stay zero until the histogram first serves a pull with a
	// non-zero t.
	newest  []newestEntry
	indexed bool
}

// Histogram accumulates per-user usage into fixed-width time bins. It is
// safe for concurrent use — local resource managers report job completions
// while the UMS reads totals.
//
// Internally the histogram is striped: users hash onto numStripes shards,
// each a map of per-user sorted bin slices plus, once the histogram serves
// incremental pulls, a dense column of each user's newest bin start (24 B
// per user). Point mutations (Add, SetBin) take one stripe lock; batch
// mutations (IngestBatch, SetRecords, Merge) take each stripe once per
// batch; whole-histogram reads (Users, Records, RecordsSince,
// DecayedTotals/AccumulateDecayed) acquire every stripe in index order, so
// they observe a state that existed at one single instant.
type Histogram struct {
	binWidth time.Duration
	half     time.Duration // binWidth/2: bin midpoint offset

	stripes [numStripes]stripe

	// tracker is the registered incremental half-life accumulator (nil
	// until a half-life is first asked for). Locking protocol: replaced, and
	// its reference moved, only while holding ALL stripe write locks; read
	// while holding any one stripe lock.
	tracker *expTracker

	// Change-cursor state (cursor.go), under the same locking protocol as
	// tracker: cursorOn starts mutations recording changed users,
	// cursorTr is the tracker whose sums the cursor reads (nil without
	// decay), cursorNow the instant of its last pass in unix nanoseconds.
	cursorOn  bool
	cursorTr  *expTracker
	cursorNow int64

	// allIndexed is set once every stripe carries its newest-bin column.
	allIndexed atomic.Bool
}

// NewHistogram creates a histogram with the given bin width (the "per-user
// histograms for configurable time intervals" produced by the USS).
// Non-positive widths default to one hour.
func NewHistogram(binWidth time.Duration) *Histogram {
	if binWidth <= 0 {
		binWidth = time.Hour
	}
	h := &Histogram{binWidth: binWidth, half: binWidth / 2}
	for i := range h.stripes {
		h.stripes[i].users = map[string]*userBins{}
	}
	return h
}

// BinWidth returns the histogram's interval width.
func (h *Histogram) BinWidth() time.Duration { return h.binWidth }

func (h *Histogram) binStart(at time.Time) int64 {
	w := int64(h.binWidth / time.Second)
	if w <= 0 {
		w = 1
	}
	u := at.Unix()
	// Floor division handles pre-epoch times correctly.
	q := u / w
	if u%w < 0 {
		q--
	}
	return q * w
}

// AlignStart floors at to the containing bin's start, in unix seconds —
// the same alignment Add/SetBin apply internally. Durable mutation records
// store pre-aligned starts so replay lands each op in the identical bin.
func (h *Histogram) AlignStart(at time.Time) int64 {
	return h.binStart(at)
}

// midTime returns the midpoint of the bin starting at start, the instant a
// bin's usage is placed at (see BinAge).
func (h *Histogram) midTime(start int64) time.Time {
	return time.Unix(start, 0).Add(h.half)
}

func (h *Histogram) stripeFor(user string) *stripe {
	return &h.stripes[par.Stripe(user, numStripes)]
}

// lockAll / unlockAll acquire and release every stripe write lock in index
// order (the canonical order prevents deadlock against other whole-
// histogram passes).
func (h *Histogram) lockAll() {
	for i := range h.stripes {
		h.stripes[i].mu.Lock()
	}
}

func (h *Histogram) unlockAll() {
	for i := range h.stripes {
		h.stripes[i].mu.Unlock()
	}
}

func (h *Histogram) rlockAll() {
	for i := range h.stripes {
		h.stripes[i].mu.RLock()
	}
}

func (h *Histogram) runlockAll() {
	for i := range h.stripes {
		h.stripes[i].mu.RUnlock()
	}
}

// userLocked returns user's state in st, creating it when the user has
// none. st's write lock must be held.
func (h *Histogram) userLocked(st *stripe, user string) *userBins {
	u := st.users[user]
	if u == nil {
		u = &userBins{}
		st.users[user] = u
		if st.indexed {
			u.slot = int32(len(st.newest))
			st.newest = append(st.newest, newestEntry{name: user})
		}
	}
	return u
}

// noteNewest keeps u's column entry at its newest bin. The stripe's write
// lock must be held.
func (st *stripe) noteNewest(u *userBins) {
	if st.indexed {
		st.newest[u.slot].start = u.lastStart()
	}
}

// dropNewest swap-removes the column entry of u, which is leaving the
// stripe: the last entry takes its slot. The stripe's write lock must be
// held, and u must still be in st.users.
func (st *stripe) dropNewest(u *userBins) {
	if !st.indexed {
		return
	}
	last := len(st.newest) - 1
	moved := st.newest[last]
	st.newest[u.slot] = moved
	st.users[moved.name].slot = u.slot
	st.newest[last] = newestEntry{}
	st.newest = st.newest[:last]
}

// findBin locates start in u.bins: it returns the index where start is or
// would be inserted, and whether it is present.
func (u *userBins) findBin(start int64) (int, bool) {
	n := len(u.bins)
	// Append-mostly fast path: new bin at or past the end.
	if n == 0 || start > u.bins[n-1].start {
		return n, false
	}
	if start == u.bins[n-1].start {
		return n - 1, true
	}
	i := sort.Search(n, func(i int) bool { return u.bins[i].start >= start })
	return i, i < n && u.bins[i].start == start
}

// addBinLocked accumulates v into user's bin at start. The stripe's write
// lock must be held. v must be positive.
func (h *Histogram) addBinLocked(st *stripe, user string, start int64, v float64) {
	u := h.userLocked(st, user)
	i, ok := u.findBin(start)
	if ok {
		u.bins[i].v += v
	} else {
		u.bins = append(u.bins, bin{})
		copy(u.bins[i+1:], u.bins[i:])
		u.bins[i] = bin{start, v}
		st.noteNewest(u)
	}
	u.total += v
	h.trackerAdd(st, user, u, start, v)
}

// setTarget locates the bin that a set of (start, v) addresses in u — nil for
// a user without bins — and reports whether the set changes anything. It does
// not when it removes (v ≤ 0) a bin that is not there, or stores the value
// already stored: every exchange re-pulls the open and the previous bin, and
// an overwrite with the same bits is not a change.
func (u *userBins) setTarget(start int64, v float64) (i int, ok, changes bool) {
	if u == nil {
		return 0, false, v > 0
	}
	i, ok = u.findBin(start)
	if v <= 0 {
		return i, ok, ok
	}
	return i, ok, !ok || v-u.bins[i].v != 0
}

// setBinLocked replaces user's bin at start with v (≤0 removes the bin).
// The stripe's write lock must be held.
func (h *Histogram) setBinLocked(st *stripe, user string, start int64, v float64) {
	u := st.users[user]
	i, ok, changes := u.setTarget(start, v)
	if !changes {
		return
	}
	if v <= 0 {
		old := u.bins[i].v
		u.bins = append(u.bins[:i], u.bins[i+1:]...)
		u.recomputeTotal()
		h.trackerAdd(st, user, u, start, -old)
		if len(u.bins) == 0 {
			st.dropNewest(u)
			delete(st.users, user)
		} else {
			st.noteNewest(u)
		}
		return
	}
	if ok {
		delta := v - u.bins[i].v
		u.bins[i].v = v
		if delta >= 0 {
			u.total += delta
		} else {
			// Shrinking overwrites re-sum the bins: the running total
			// never accumulates cancellation drift.
			u.recomputeTotal()
		}
		h.trackerAdd(st, user, u, start, delta)
		return
	}
	if u == nil {
		u = h.userLocked(st, user)
	}
	u.bins = append(u.bins, bin{})
	copy(u.bins[i+1:], u.bins[i:])
	u.bins[i] = bin{start, v}
	st.noteNewest(u)
	u.total += v
	h.trackerAdd(st, user, u, start, v)
}

// Add accumulates coreSeconds of usage for user at the bin containing `at`.
func (h *Histogram) Add(user string, at time.Time, coreSeconds float64) {
	if coreSeconds <= 0 || user == "" {
		return
	}
	st := h.stripeFor(user)
	start := h.binStart(at)
	st.mu.Lock()
	h.addBinLocked(st, user, start, coreSeconds)
	st.mu.Unlock()
}

// AddSpread distributes a job's usage across the bins it executed in — a job
// running from start for dur at procs cores contributes proportionally to
// each overlapped interval. The whole spread is applied under one stripe
// acquisition, so readers see either none or all of the job's usage.
func (h *Histogram) AddSpread(user string, start time.Time, dur time.Duration, procs int) {
	if dur <= 0 || user == "" {
		return
	}
	if procs < 1 {
		procs = 1
	}
	// Pre-compute the per-bin slices outside the lock. Slices come out in
	// ascending bin order, so the locked phase is append-mostly.
	var spans []bin
	end := start.Add(dur)
	cur := start
	for cur.Before(end) {
		bs := h.binStart(cur)
		binEnd := time.Unix(bs, 0).UTC().Add(h.binWidth)
		sliceEnd := end
		if binEnd.Before(sliceEnd) {
			sliceEnd = binEnd
		}
		if v := sliceEnd.Sub(cur).Seconds() * float64(procs); v > 0 {
			spans = append(spans, bin{bs, v})
		}
		cur = sliceEnd
	}
	if len(spans) == 0 {
		return
	}
	st := h.stripeFor(user)
	st.mu.Lock()
	for _, s := range spans {
		h.addBinLocked(st, user, s.start, s.v)
	}
	st.mu.Unlock()
}

// SetBin replaces the value of user's bin starting at binStart (the bin
// containing binStart). A non-positive value removes the bin. This is the
// ingestion primitive for incremental inter-site exchange, where a re-fetched
// interval must overwrite rather than accumulate.
func (h *Histogram) SetBin(user string, binStart time.Time, v float64) {
	if user == "" {
		return
	}
	st := h.stripeFor(user)
	start := h.binStart(binStart)
	st.mu.Lock()
	h.setBinLocked(st, user, start, v)
	st.mu.Unlock()
}

// batchByStripe groups records by target stripe so a batch touches each
// stripe lock at most once.
func batchByStripe(records []Record) [numStripes][]Record {
	var by [numStripes][]Record
	for _, r := range records {
		if r.User == "" {
			continue
		}
		i := par.Stripe(r.User, numStripes)
		by[i] = append(by[i], r)
	}
	return by
}

// IngestBatch accumulates a batch of exchange records with one lock
// acquisition per touched stripe. Records with an empty user or
// non-positive usage are skipped, matching Add.
func (h *Histogram) IngestBatch(records []Record) {
	if len(records) == 0 {
		return
	}
	by := batchByStripe(records)
	for i := range by {
		if len(by[i]) == 0 {
			continue
		}
		st := &h.stripes[i]
		st.mu.Lock()
		for _, r := range by[i] {
			if r.CoreSeconds <= 0 {
				continue
			}
			h.addBinLocked(st, r.User, h.binStart(r.IntervalStart), r.CoreSeconds)
		}
		st.mu.Unlock()
	}
}

// SetRecords replaces the bins named by a batch of exchange records
// (SetBin semantics) with one lock acquisition per touched stripe — the
// bulk primitive of the incremental inter-site exchange, where a re-fetched
// interval overwrites rather than accumulates. All records of one user land
// atomically with respect to whole-histogram readers.
func (h *Histogram) SetRecords(records []Record) {
	if len(records) == 0 {
		return
	}
	by := batchByStripe(records)
	for i := range by {
		if len(by[i]) == 0 {
			continue
		}
		st := &h.stripes[i]
		st.mu.Lock()
		for _, r := range by[i] {
			h.setBinLocked(st, r.User, h.binStart(r.IntervalStart), r.CoreSeconds)
		}
		st.mu.Unlock()
	}
}

// Changing returns, in their order, the records that SetRecords would not
// skip against the bins as they are now (setTarget's rule, read under the
// stripe read locks): what a pull that re-fetches whole intervals really
// brings. Judging every record against the stored bins is sound only while no
// two records name the same bin, so a sequence that is not strictly ascending
// by (user, bin) — every export is — comes back whole.
func (h *Histogram) Changing(records []Record) []Record {
	h.rlockAll()
	defer h.runlockAll()
	var out []Record
	prevUser, prevStart := "", int64(0)
	for i, r := range records {
		start := h.binStart(r.IntervalStart)
		if c := strings.Compare(prevUser, r.User); i > 0 && (c > 0 || c == 0 && prevStart >= start) {
			return records
		}
		prevUser, prevStart = r.User, start
		if r.User == "" {
			continue
		}
		u := h.stripeFor(r.User).users[r.User]
		if _, _, changes := u.setTarget(start, r.CoreSeconds); changes {
			out = append(out, r)
		}
	}
	return out
}

// Users returns the sorted user names with recorded usage.
func (h *Histogram) Users() []string {
	h.rlockAll()
	var out []string
	for i := range h.stripes {
		for u := range h.stripes[i].users {
			out = append(out, u)
		}
	}
	h.runlockAll()
	sort.Strings(out)
	return out
}

// Total returns the undecayed total usage of user — O(1), served from the
// user's running sum.
func (h *Histogram) Total(user string) float64 {
	st := h.stripeFor(user)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if u := st.users[user]; u != nil {
		return u.total
	}
	return 0
}

// DecayedTotal returns user's usage with each bin weighted by its age at
// `now` (BinAge) under the given decay function: the per-bin reference walk
// the incremental sums are pinned against.
func (h *Histogram) DecayedTotal(user string, now time.Time, d Decay) float64 {
	if d == nil {
		d = None{}
	}
	st := h.stripeFor(user)
	st.mu.RLock()
	defer st.mu.RUnlock()
	u := st.users[user]
	if u == nil {
		return 0
	}
	// Bins are kept sorted, so summing in slice order reproduces the
	// deterministic key-ordered float sums of the map-based implementation.
	var sum float64
	for _, b := range u.bins {
		sum += b.v * d.Weight(BinAge(now, time.Unix(b.start, 0), h.binWidth))
	}
	return sum
}

// DecayedTotals returns the decayed totals for every user, computed in one
// read-consistent pass (all stripes held for the duration, so the result is
// a view that existed at a single instant), served from the O(users)
// incremental sums. See AccumulateDecayed for combining several histograms.
func (h *Histogram) DecayedTotals(now time.Time, d Decay) map[string]float64 {
	// Pre-size to the current user count: at scale, growing the result map
	// incrementally costs more than the weighted sums themselves.
	out := make(map[string]float64, h.UserCount())
	h.AccumulateDecayed(out, now, d)
	return out
}

// UserCount returns the number of users with recorded usage. Stripes are
// sampled one lock at a time — callers use it only as a sizing hint.
func (h *Histogram) UserCount() int {
	n := 0
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		n += len(st.users)
		st.mu.RUnlock()
	}
	return n
}

// AccumulateDecayed adds every user's decayed total at `now` into dst —
// the one-pass merge primitive for combining local and remote histograms
// without intermediate maps.
func (h *Histogram) AccumulateDecayed(dst map[string]float64, now time.Time, d Decay) {
	hl := halfLifeOf(d)
	if hl == 0 {
		h.rlockAll()
		h.accumPlain(dst)
		h.runlockAll()
		return
	}
	// Write locks: the pass may register the tracker, rebase its reference
	// instant, or persist recomputed per-user sums.
	h.lockAll()
	h.accumExp(dst, now, hl)
	h.unlockAll()
}

// accumPlain adds undecayed totals by summing each user's bins in sorted
// order — bit-identical to the naive weight-1 per-bin sum (Total() serves
// the O(1) running sum instead; this pass is already O(total bins) cheap
// with no weight evaluations). Any stripe lock held.
func (h *Histogram) accumPlain(dst map[string]float64) {
	for i := range h.stripes {
		for name, u := range h.stripes[i].users {
			var sum float64
			for _, b := range u.bins {
				sum += b.v
			}
			dst[name] += sum
		}
	}
}

// Records exports the histogram as compact exchange records for the given
// site, sorted by user then interval. The export is read-consistent: all
// stripes are held while it is assembled.
func (h *Histogram) Records(site string) []Record {
	h.rlockAll()
	defer h.runlockAll()
	return exportRecords(site, h.stripes[:])
}

// NumStripes reports the lock-striping factor — the valid range of
// StripeRecords indices.
func (h *Histogram) NumStripes() int { return numStripes }

// StripeRecords exports one stripe's bins as exchange records, sorted by
// user then interval, holding only that stripe's lock. Snapshot writers
// iterate stripes one at a time so whole-histogram readers never stall
// behind the export.
func (h *Histogram) StripeRecords(site string, i int) []Record {
	h.stripes[i].mu.RLock()
	defer h.stripes[i].mu.RUnlock()
	return exportRecords(site, h.stripes[i:i+1])
}

// RecordsSince exports only records whose interval starts at or after t —
// the incremental exchange between USS instances — read-consistently like
// Records, which is the same call with the zero time. A pull costs one
// int64 comparison per user over the stripes' newest-bin columns plus a
// binary search and the export for each user it selects: no map walk and no
// time.Time per user. The first call with a non-zero t attaches the columns,
// one stripe write lock at a time; from then on every mutation keeps them
// current.
func (h *Histogram) RecordsSince(site string, t time.Time) []Record {
	if t.IsZero() {
		return h.Records(site)
	}
	if !h.allIndexed.Load() {
		h.indexNewest()
	}
	from := t.Unix()
	if t.Nanosecond() > 0 {
		from++ // bin starts are whole seconds: start ≥ t means start ≥ ⌈t⌉
	}
	h.rlockAll()
	defer h.runlockAll()
	var tails []userTail
	for i := range h.stripes {
		st := &h.stripes[i]
		for _, e := range st.newest {
			if e.start < from {
				continue
			}
			bins := st.users[e.name].bins
			k := sort.Search(len(bins), func(k int) bool { return bins[k].start >= from })
			tails = append(tails, userTail{e.name, bins[k:]})
		}
	}
	return emitTails(site, tails)
}

// indexNewest attaches the newest-bin column to every stripe that lacks one.
func (h *Histogram) indexNewest() {
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		if !st.indexed {
			st.indexed = true
			st.newest = make([]newestEntry, 0, len(st.users))
			for name, u := range st.users {
				u.slot = int32(len(st.newest))
				st.newest = append(st.newest, newestEntry{u.lastStart(), name})
			}
		}
		st.mu.Unlock()
	}
	h.allIndexed.Store(true)
}

// userTail is the run of one user's bins an export emits.
type userTail struct {
	name string
	bins []bin
}

// exportRecords emits every bin of the given stripes as exchange records for
// site, sorted by user then interval; the caller holds the stripes' locks.
func exportRecords(site string, stripes []stripe) []Record {
	var tails []userTail
	for i := range stripes {
		for name, u := range stripes[i].users {
			tails = append(tails, userTail{name, u.bins})
		}
	}
	return emitTails(site, tails)
}

// emitTails sorts tails by user and emits their bins as exchange records for
// site.
func emitTails(site string, tails []userTail) []Record {
	slices.SortFunc(tails, func(a, b userTail) int { return strings.Compare(a.name, b.name) })
	total := 0
	for _, ut := range tails {
		total += len(ut.bins)
	}
	out := make([]Record, 0, total)
	for _, ut := range tails {
		for _, b := range ut.bins {
			out = append(out, Record{
				User:          ut.name,
				Site:          site,
				IntervalStart: time.Unix(b.start, 0).UTC(),
				CoreSeconds:   b.v,
			})
		}
	}
	return out
}

// Merge folds other's bins into h. When the bin widths match (the common
// case — Clone, and sites exchanging at one configured width), each of
// other's stripes maps onto the same stripe of h, so the merge runs as one
// sorted bin-slice merge per stripe pair with a single lock acquisition on
// each side and no intermediate cell records. Mismatched widths re-bin
// through the batch-ingest path.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if other.binWidth == h.binWidth {
		for i := range other.stripes {
			src := &other.stripes[i]
			src.mu.RLock()
			type uc struct {
				name string
				bins []bin
			}
			cells := make([]uc, 0, len(src.users))
			for name, u := range src.users {
				cells = append(cells, uc{name, append([]bin(nil), u.bins...)})
			}
			src.mu.RUnlock()
			if len(cells) == 0 {
				continue
			}
			dst := &h.stripes[i]
			dst.mu.Lock()
			for _, c := range cells {
				for _, b := range c.bins {
					h.addBinLocked(dst, c.name, b.start, b.v)
				}
			}
			dst.mu.Unlock()
		}
		return
	}
	// Differing widths: export and re-bin (rare; batch path keeps lock
	// churn at one acquisition per stripe).
	h.IngestBatch(other.Records(""))
}

// Clone returns a deep copy. The incremental decay tracker is not copied;
// the clone registers one lazily on its first half-life totals pass.
func (h *Histogram) Clone() *Histogram {
	out := NewHistogram(h.binWidth)
	out.Merge(h)
	return out
}
