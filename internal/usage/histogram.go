package usage

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/par"
	"repro/internal/slot"
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

// userBins is one user's accounting state: an element of its stripe's slab,
// guarded by that stripe's lock, 16 B and pointer-free. A *userBins into the
// slab is good until the next insert into or removal from the stripe, which
// may move the slab or the user; no caller holds one across either.
type userBins struct {
	// The user's bins are arena[off:off+n] of its stripe, sorted ascending by
	// start. Usage arrives roughly in time order, so inserts are
	// append-mostly; out-of-order inserts shift. The extent at off holds
	// room(n) bins: its size is derived from n, never stored.
	off, n uint32
	// sum is the incremental decayed state under the histogram's tracker
	// (see incremental.go): Σ v·2^(-(ref-mid)/H), valid unless the user's
	// flags say dirty.
	sum float64
}

// A user's flags, one byte in its stripe's flags column (beside the slab,
// where they would pad a userBins from 16 B to 24).
const (
	// dirty: sum is unreliable; the next cursor pass recomputes it from the
	// bins.
	dirty uint8 = 1 << iota
	// marked: the user sits in its stripe's change list, so a user mutated
	// many times between two cursor passes is listed once.
	marked
)

// room returns the size of the extent that holds n bins: n itself up to 4,
// then n rounded up to the next of 6, 8, 12, 16, 24, 32, …, two sizes per
// doubling, so that a user growing one bin at a time moves O(log n) times
// and wastes at most a third of its extent.
func room(n uint32) uint32 {
	if n <= 4 {
		return n
	}
	b := bits.Len32(n - 1)
	if mid := uint32(3) << (b - 2); n <= mid {
		return mid
	}
	return 1 << b
}

// stripe is one lock shard: a mutex plus the users hashed onto it, kept in
// a dense slab of parallel columns (position j is one user) that a
// slot.Table indexes by name, and one pointer-free arena that holds every
// user's bins. A user whose last bin is removed leaves the slab by
// swap-remove: the last user takes its position.
type stripe struct {
	mu    sync.RWMutex
	names []string
	users []userBins
	// newest[j] is user j's newest bin start, unix seconds: the column a
	// pull scans (RecordsSince), kept current by every mutation.
	newest []int64
	// flags[j] holds user j's dirty and marked bits.
	flags []uint8
	slots slot.Table
	// arena holds the users' extents. An extent that outgrows its room moves
	// to the arena's end and leaves its old place dead; held is Σ room(n)
	// over the users, so len(arena)-held bins are dead, and took counts the
	// bins appended at the arena's end since the last cursor pass. A full
	// arena is compacted into a larger one, which drops the dead bins; a
	// cursor pass trims the arena of a stripe that has stopped growing.
	arena []bin
	held  int
	took  int
	// changed lists the users whose bins really changed since the change
	// cursor last passed; clamped lists those whose newest bin started after
	// that pass's `now` (see cursor.go). Both stay empty until a cursor
	// attaches.
	changed []string
	clamped []string
}

// find returns user's position in the stripe and the user's slot hash.
func (st *stripe) find(user string) (pos int32, h uint64, ok bool) {
	h = slot.Hash(user)
	pos, ok = st.slots.Find(st.names, user, h)
	return pos, h, ok
}

// binsAt returns the bins of the user at pos, capped at their count so an
// append cannot run into the next extent. Any lock on st held; the slice is
// good until the stripe's next mutation.
func (st *stripe) binsAt(pos int) []bin {
	u := &st.users[pos]
	return st.arena[u.off : u.off+u.n : u.off+u.n]
}

// get returns user's bins, nil when the user has none. Any lock on st held;
// the slice is good until the stripe's next mutation.
func (st *stripe) get(user string) []bin {
	if pos, _, ok := st.find(user); ok {
		return st.binsAt(int(pos))
	}
	return nil
}

// insert appends a user without bins, whose slot hash is h, to the slab and
// returns its position. The stripe's write lock must be held.
func (st *stripe) insert(user string, h uint64) int32 {
	st.slots.Reserve(st.names, len(st.names)+1)
	pos := int32(len(st.names))
	if len(st.names) == cap(st.names) {
		n := len(st.names) + len(st.names)/4 + 8
		st.names, st.users, st.newest, st.flags = regrow(st.names, n), regrow(st.users, n), regrow(st.newest, n), regrow(st.flags, n)
	}
	st.names = append(st.names, user)
	st.users = append(st.users, userBins{off: uint32(len(st.arena))})
	st.newest = append(st.newest, 0)
	st.flags = append(st.flags, 0)
	st.slots.Add(h, pos)
	return pos
}

// regrow returns s copied into a capacity of n. The slab's columns grow by a
// quarter at a time rather than by append's doubling below 256 elements: a
// stripe holds hundreds to tens of thousands of users, and columns left half
// empty by a doubling would hold up to 41 B of growth room per user.
func regrow[T any](s []T, n int) []T {
	out := make([]T, len(s), n)
	copy(out, s)
	return out
}

// remove swap-removes the user at pos, whose slot hash is h and whose bins
// are all removed: the slab's last user takes its position. The stripe's
// write lock must be held.
func (st *stripe) remove(pos int32, h uint64) {
	st.slots.Delete(st.names, h, pos)
	last := int32(len(st.names) - 1)
	if pos != last {
		st.slots.Move(slot.Hash(st.names[last]), last, pos)
		st.names[pos], st.users[pos], st.newest[pos], st.flags[pos] = st.names[last], st.users[last], st.newest[last], st.flags[last]
	}
	st.names[last] = ""
	st.names, st.users, st.newest, st.flags = st.names[:last], st.users[:last], st.newest[:last], st.flags[:last]
}

// compact copies the live extents, in slab position order, into a new arena
// of capacity size, which drops the dead bins. The stripe's write lock must
// be held.
func (st *stripe) compact(size int) {
	arena := make([]bin, 0, size)
	for j := range st.users {
		u := &st.users[j]
		off := len(arena)
		arena = append(arena, st.arena[u.off:u.off+u.n]...)
		arena = arena[:off+int(room(u.n))]
		u.off = uint32(off)
	}
	st.arena = arena
}

// settleArena is a cursor pass's look at the stripe's arena; first says the
// histogram had no pass before. A stripe that took at most a sixteenth of
// its held bins since the previous pass is quiet, and the pass compacts a
// quiet one whose dead and spare bins pass an eighth of its held bins (and
// 64) to a sixteenth of spare room (and 64). A stripe still growing is left
// to its inserts: trimming it would only have them regrow it by the next
// pass. The stripe's write lock must be held.
func (st *stripe) settleArena(first bool) {
	if (first || st.took <= st.held/16) && cap(st.arena)-st.held > st.held/8+64 {
		st.compact(st.held + st.held/16 + 64)
	}
	st.took = 0
}

// Histogram accumulates per-user usage into fixed-width time bins. It is
// safe for concurrent use — local resource managers report job completions
// while the UMS reads totals.
//
// Internally the histogram is striped: users hash onto numStripes shards,
// each a dense slab of users (name, 16 B userBins entry, newest bin start,
// flags) that a pointer-free slot.Table finds a name in, and one
// pointer-free arena of every user's sorted bins — no map and no heap object
// per user. Mutations (IngestOps, SetRecords, Merge, AddSpread)
// take each touched stripe once per call; whole-histogram reads (Records,
// RecordsSince, DecayedTotals/AccumulateDecayed) acquire every stripe in
// index order, so they observe a state that existed at one single instant.
type Histogram struct {
	binWidth time.Duration
	half     time.Duration // binWidth/2: bin midpoint offset

	stripes [numStripes]stripe

	// tracker is the incremental half-life accumulator of the change
	// cursor's decay (nil until a cursor pass with a half-life). Locking
	// protocol: registered, replaced, rebased and dropped only by a cursor
	// pass, holding ALL stripe write locks; read while holding any one
	// stripe lock.
	tracker *expTracker

	// Change-cursor state (cursor.go), under the same locking protocol as
	// tracker: cursorOn starts mutations recording changed users, cursorNow
	// is the instant of the last pass in unix nanoseconds.
	cursorOn  bool
	cursorNow int64
}

// NewHistogram creates a histogram with the given bin width (the "per-user
// histograms for configurable time intervals" produced by the USS).
// Non-positive widths default to one hour.
func NewHistogram(binWidth time.Duration) *Histogram {
	if binWidth <= 0 {
		binWidth = time.Hour
	}
	return &Histogram{binWidth: binWidth, half: binWidth / 2}
}

func (h *Histogram) binStart(at time.Time) int64 { return h.floorStart(at.Unix()) }

// floorStart floors u, in unix seconds, to the start of the bin holding it.
func (h *Histogram) floorStart(u int64) int64 {
	w := int64(h.binWidth / time.Second)
	if w <= 0 {
		w = 1
	}
	// Floor division handles pre-epoch times correctly.
	q := u / w
	if u%w < 0 {
		q--
	}
	return q * w
}

// AlignStart floors at to the containing bin's start, in unix seconds —
// the same alignment IngestBatch and SetRecords apply internally, and the
// start an IngestOps op carries. Durable mutation records store pre-aligned
// starts so replay lands each op in the identical bin.
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

// findBin locates start in bins: it returns the index where start is or
// would be inserted, and whether it is present.
func findBin(bins []bin, start int64) (int, bool) {
	n := len(bins)
	// Append-mostly fast path: new bin at or past the end.
	if n == 0 || start > bins[n-1].start {
		return n, false
	}
	if start == bins[n-1].start {
		return n - 1, true
	}
	i := sort.Search(n, func(i int) bool { return bins[i].start >= start })
	return i, i < n && bins[i].start == start
}

// insertBin inserts the bin (start, v) at index i of user pos's bins and
// keeps the user's newest start current. A full extent first grows: in place
// when it is the arena's last and the arena has room, else by moving to the
// arena's end, past a regrowth when the arena is full.
func (st *stripe) insertBin(pos int32, i int, start int64, v float64) {
	u := &st.users[pos]
	if have := room(u.n); u.n == have {
		want := room(u.n + 1)
		if int(u.off+have) != len(st.arena) || len(st.arena)+int(want-have) > cap(st.arena) {
			// A full arena grows by an eighth of its held bins, or by what
			// the stripe took since the last cursor pass if that is more:
			// a stripe filled with no pass between (a load, a replay)
			// grows geometrically with its moves, not by a fixed step.
			if len(st.arena)+int(want) > cap(st.arena) {
				n := st.held + int(want)
				st.compact(n + max(n/8, st.took) + 64)
			}
			off := len(st.arena)
			st.arena = append(st.arena, st.arena[u.off:u.off+u.n]...)
			u.off = uint32(off)
			st.took += int(have)
		}
		st.arena = st.arena[:u.off+want]
		st.held += int(want - have)
		st.took += int(want - have)
	}
	bins := st.arena[u.off : u.off+u.n+1]
	copy(bins[i+1:], bins[i:])
	bins[i] = bin{start, v}
	u.n++
	st.newest[pos] = bins[u.n-1].start
}

// removeBin removes bin i of user pos, whose slot hash is h, and the user
// with its last bin. An extent whose room shrinks leaves its tail dead.
func (st *stripe) removeBin(pos int32, h uint64, i int) {
	u := &st.users[pos]
	bins := st.arena[u.off : u.off+u.n]
	copy(bins[i:], bins[i+1:])
	u.n--
	st.held -= int(room(u.n+1) - room(u.n))
	if u.n == 0 {
		st.remove(pos, h)
		return
	}
	st.newest[pos] = bins[u.n-1].start
}

// addBinLocked accumulates v into user's bin at start; hash is the user's
// slot.Hash. The stripe's write lock must be held. v must be positive.
func (h *Histogram) addBinLocked(st *stripe, user string, hash uint64, start int64, v float64) {
	pos, ok := st.slots.Find(st.names, user, hash)
	if !ok {
		pos = st.insert(user, hash)
	}
	bins := st.binsAt(int(pos))
	if i, ok := findBin(bins, start); ok {
		bins[i].v += v
	} else {
		st.insertBin(pos, i, start, v)
	}
	h.trackerAdd(st, pos, start, v)
}

// setTarget locates the bin that a set of (start, v) addresses in bins —
// empty for a user without bins — and reports whether the set changes
// anything. It does not when it removes (v ≤ 0) a bin that is not there, or
// stores the value already stored: every exchange re-pulls the open and the
// previous bin, and an overwrite with the same bits is not a change.
func setTarget(bins []bin, start int64, v float64) (i int, ok, changes bool) {
	i, ok = findBin(bins, start)
	if v <= 0 {
		return i, ok, ok
	}
	return i, ok, !ok || v-bins[i].v != 0
}

// setBinLocked replaces user's bin at start with v (≤0 removes the bin).
// The stripe's write lock must be held.
func (h *Histogram) setBinLocked(st *stripe, user string, start int64, v float64) {
	pos, hash, found := st.find(user)
	var bins []bin
	if found {
		bins = st.binsAt(int(pos))
	}
	i, ok, changes := setTarget(bins, start, v)
	if !changes {
		return
	}
	if v <= 0 {
		old := bins[i].v
		h.trackerAdd(st, pos, start, -old)
		st.removeBin(pos, hash, i)
		return
	}
	if ok {
		delta := v - bins[i].v
		bins[i].v = v
		h.trackerAdd(st, pos, start, delta)
		return
	}
	if !found {
		pos = st.insert(user, hash)
	}
	st.insertBin(pos, i, start, v)
	h.trackerAdd(st, pos, start, v)
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
	st, hash := h.stripeFor(user), slot.Hash(user)
	st.mu.Lock()
	for _, s := range spans {
		h.addBinLocked(st, user, hash, s.start, s.v)
	}
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

// IngestBatch accumulates a batch of exchange records: IngestOps on the
// records' bin-aligned cells. Records with an empty user or non-positive
// usage are skipped.
func (h *Histogram) IngestBatch(records []Record) {
	var b OpBatch
	for _, r := range records {
		b.add(BinOp{User: r.User, Start: h.binStart(r.IntervalStart), Value: r.CoreSeconds})
	}
	h.IngestGrouped(&b)
}

// IngestOps accumulates a batch of bin ops with one lock acquisition per
// touched stripe — the one way usage accumulates into a histogram, a single
// job report included: IngestGrouped on the ops grouped by OpBatch.Add. An
// op's Start is floored to its bin (the identity on a start from
// AlignStart); ops with an empty user or a non-positive value are skipped.
// A site's job reports and the replay of their WAL records both come here
// with the same ops in the same order, so both perform the same float
// additions.
func (h *Histogram) IngestOps(ops []BinOp) {
	var b OpBatch
	b.Add(ops)
	h.IngestGrouped(&b)
}

// OpBatch is a batch of bin ops grouped by histogram stripe, in their order
// within each stripe, each with its user's slot hash. The zero value is an
// empty batch.
type OpBatch struct {
	by [numStripes][]hashedOp
}

type hashedOp struct {
	BinOp
	hash uint64 // slot.Hash(User)
}

// Add groups ops into b by stripe and hashes their users for IngestGrouped,
// dropping the ops that IngestOps skips. It reads no histogram state, so a
// caller may run it beside other work: the durable ingest runs it while the
// batch's WAL record is encoded and synced.
func (b *OpBatch) Add(ops []BinOp) {
	for _, op := range ops {
		b.add(op)
	}
}

func (b *OpBatch) add(op BinOp) {
	if op.User == "" || op.Value <= 0 {
		return
	}
	i := par.Stripe(op.User, numStripes)
	b.by[i] = append(b.by[i], hashedOp{op, slot.Hash(op.User)})
}

// IngestGrouped is the locked half of IngestOps: it accumulates b, one
// stripe at a time.
func (h *Histogram) IngestGrouped(b *OpBatch) {
	for i := range b.by {
		if len(b.by[i]) == 0 {
			continue
		}
		st := &h.stripes[i]
		st.mu.Lock()
		for _, op := range b.by[i] {
			h.addBinLocked(st, op.User, op.hash, h.floorStart(op.Start), op.Value)
		}
		st.mu.Unlock()
	}
}

// SetRecords replaces the bins named by a batch of exchange records (a
// value ≤ 0 removes the bin) with one lock acquisition per touched stripe —
// the primitive of the incremental inter-site exchange, where a re-fetched
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
		bins := h.stripeFor(r.User).get(r.User)
		if _, _, changes := setTarget(bins, start, r.CoreSeconds); changes {
			out = append(out, r)
		}
	}
	return out
}

// DecayedTotal returns user's usage with each bin weighted by its age at
// `now` (BinAge) under the given decay function (None: the plain sum): the
// per-bin reference walk the incremental sums are pinned against.
func (h *Histogram) DecayedTotal(user string, now time.Time, d Decay) float64 {
	if d == nil {
		d = None{}
	}
	st := h.stripeFor(user)
	st.mu.RLock()
	defer st.mu.RUnlock()
	// Bins are kept sorted, so summing in slice order reproduces the
	// deterministic key-ordered float sums of the map-based implementation.
	var sum float64
	for _, b := range st.get(user) {
		sum += b.v * d.Weight(BinAge(now, time.Unix(b.start, 0), h.binWidth))
	}
	return sum
}

// DecayedTotals returns the decayed totals for every user, computed in one
// read-consistent pass (all stripe read locks held for the duration, so the
// result is a view that existed at a single instant). See AccumulateDecayed
// for combining several histograms and for which users are served from the
// incremental sums.
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
		n += len(st.names)
		st.mu.RUnlock()
	}
	return n
}

// AccumulateDecayed adds every user's decayed total at `now` into dst —
// the one-pass merge primitive for combining local and remote histograms
// without intermediate maps. It is a read under the stripe read locks: it
// never moves the change cursor's state (see accumExp).
func (h *Histogram) AccumulateDecayed(dst map[string]float64, now time.Time, d Decay) {
	h.rlockAll()
	defer h.runlockAll()
	if hl := halfLifeOf(d); hl > 0 {
		h.accumExp(dst, now, hl)
		return
	}
	h.accumPlain(dst)
}

// accumPlain adds undecayed totals by summing each user's bins in sorted
// order — bit-identical to the naive weight-1 per-bin sum, and already
// O(total bins) cheap with no weight evaluations. Any stripe lock held.
func (h *Histogram) accumPlain(dst map[string]float64) {
	for i := range h.stripes {
		st := &h.stripes[i]
		for j := range st.users {
			var sum float64
			for _, b := range st.binsAt(j) {
				sum += b.v
			}
			dst[st.names[j]] += sum
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
// int64 comparison per user over the stripes' dense newest-start columns
// plus a binary search and the export for each user it selects: no map walk
// and no time.Time per user.
func (h *Histogram) RecordsSince(site string, t time.Time) []Record {
	if t.IsZero() {
		return h.Records(site)
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
		for j, newest := range st.newest {
			if newest < from {
				continue
			}
			bins := st.binsAt(j)
			k := sort.Search(len(bins), func(k int) bool { return bins[k].start >= from })
			tails = append(tails, userTail{st.names[j], bins[k:]})
		}
	}
	return emitTails(site, tails)
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
		st := &stripes[i]
		for j := range st.users {
			tails = append(tails, userTail{st.names[j], st.binsAt(j)})
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

// Merge folds other's bins into h; both must have the same bin width (it
// panics otherwise). Each of other's stripes maps onto the same stripe of h,
// so the merge copies a source stripe's names, bin counts and live bins into
// one slice each under its read lock, then adds them under one write lock
// of the destination stripe.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if other.binWidth != h.binWidth {
		panic("usage: Merge of histograms with different bin widths")
	}
	for i := range other.stripes {
		src := &other.stripes[i]
		src.mu.RLock()
		held := src.held
		names := slices.Clone(src.names)
		counts := make([]uint32, len(src.users))
		bins := make([]bin, 0, held)
		for j := range src.users {
			counts[j] = src.users[j].n
			bins = append(bins, src.binsAt(j)...)
		}
		src.mu.RUnlock()
		if len(names) == 0 {
			continue
		}
		dst := &h.stripes[i]
		dst.mu.Lock()
		// Into an empty stripe (a Clone) every user is new and its extent
		// the arena's last, so held more bins take them all; the copy
		// keeps the eighth of spare room an insert's regrowth leaves.
		if n := dst.held + held; len(dst.arena)+held > cap(dst.arena) {
			dst.compact(n + n/8 + 64)
		}
		for j, name := range names {
			hash := slot.Hash(name)
			for _, b := range bins[:counts[j]] {
				h.addBinLocked(dst, name, hash, b.start, b.v)
			}
			bins = bins[counts[j]:]
		}
		dst.mu.Unlock()
	}
}

// Clone returns a deep copy. The incremental decay tracker is not copied;
// the clone registers one on its first cursor pass with a half-life.
func (h *Histogram) Clone() *Histogram {
	out := NewHistogram(h.binWidth)
	out.Merge(h)
	return out
}
