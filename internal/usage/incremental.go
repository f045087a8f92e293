package usage

import (
	"math"
	"time"
)

// Incremental exponential totals.
//
// Exponential half-life decay factors through time: for any reference
// instant ref,
//
//	Σ v_i · 2^(-(now-mid_i)/H)  =  2^(-(now-ref)/H) · Σ v_i · 2^(-(ref-mid_i)/H)
//
// so the histogram keeps, per user, the sum decayed to ref and serves a
// totals pass by advancing every user with ONE shared scalar multiply —
// O(users) instead of O(users × bins). Mutations fold new usage into the
// per-user sum as O(1) updates (one Exp2 against ref per touched bin).
//
// The change cursor (cursor.go) is the one writer of this state: only its
// pass registers the tracker for its decay, moves the reference instant and
// re-seeds dirty sums, and those sums are what it hands down the pipeline in
// place of decayed totals. A totals read only reads them, and only when the
// tracker's half-life is the one asked for.
//
// Two deviations from the pure algebra are handled explicitly:
//
//   - Clamping: a bin that starts after `now` is held at the weight of a
//     bin just opened (BinAge stops at minus half a bin), which no sum at a
//     reference instant expresses. Users whose newest bin has not started
//     are computed exactly per-bin; the incremental sum takes over once it
//     has. A started bin needs none of this: it is valued at its midpoint
//     from the moment it opens, 2^(+x) in its first half, which is what the
//     sum holds.
//   - Conditioning: a cursor pass rebases the reference instant to `now`
//     whenever it drifts more than rebaseHalfLives half-lives, which bounds
//     every stored magnitude within 2^±rebaseHalfLives of its true scale; a
//     mutation that cannot be represented that way (a far-future bin, or a
//     value decrease whose cancellation could compound) marks the user
//     dirty, and the next pass re-seeds that user's sum from its bins. A
//     read computes dirty users per bin.
//
// The equivalence property tests in equivalence_test.go pin this path to
// ≤1e-9 relative error against the naive per-bin sum.

// rebaseHalfLives bounds how far (in half-lives) the reference instant may
// drift from `now`, and how far a bin midpoint may sit in the future of the
// reference before the delta update is abandoned for a recompute. 16 keeps
// intermediate magnitudes within 2^±16 of true scale, so accumulated
// rounding stays orders of magnitude under the 1e-9 equivalence bound.
const rebaseHalfLives = 16.0

// expTracker is the histogram's incremental state for the change cursor's
// half-life. A cursor pass under another half-life registers a new tracker
// in its place, at the cost of one walk over every bin. The per-user sums
// live in userBins.sum, beside each user's dirty flag. Guarded by the stripe
// locks: replaced and rebased only by a cursor pass, under all stripe write
// locks.
type expTracker struct {
	halfLife time.Duration
	ref      time.Time // reference instant of the per-user sums
}

// weightAtRef returns 2^(-(ref-mid)/H) and whether it is representable
// within the conditioning bounds (false ⇒ caller must mark dirty).
func (tr *expTracker) weightAtRef(mid time.Time) (float64, bool) {
	x := float64(tr.ref.Sub(mid)) / float64(tr.halfLife)
	if x < -rebaseHalfLives {
		return 0, false // bin far in the future of ref: 2^-x would blow up
	}
	return math.Exp2(-x), true
}

// trackerAdd folds a bin delta into the sum of the user at pos under the
// registered tracker and, once a change cursor is attached, lists the user
// as changed. The owning stripe's write lock must be held and delta must be
// non-zero. Negative deltas (bin overwritten downward or removed) poison the
// running sum with potential cancellation, so they mark the user dirty
// instead; exchange overwrites are monotone in the common case, keeping this
// rare.
func (h *Histogram) trackerAdd(st *stripe, pos int32, start int64, delta float64) {
	f := &st.flags[pos]
	if h.cursorOn && *f&marked == 0 {
		*f |= marked
		st.changed = append(st.changed, st.names[pos])
	}
	tr := h.tracker
	if tr == nil || *f&dirty != 0 {
		return
	}
	if delta < 0 {
		*f |= dirty
		return
	}
	w, ok := tr.weightAtRef(h.midTime(start))
	if !ok {
		*f |= dirty
		return
	}
	st.users[pos].sum += delta * w
}

// trackerFor returns the tracker for halfLife, registering it at reference
// instant ref in place of any other; fresh reports a registration, which
// walks every bin once to seed the per-user sums. Called by a cursor pass
// only, with all stripe write locks held.
func (h *Histogram) trackerFor(halfLife time.Duration, ref time.Time) (tr *expTracker, fresh bool) {
	if tr = h.tracker; tr != nil && tr.halfLife == halfLife {
		return tr, false
	}
	tr = &expTracker{halfLife: halfLife, ref: ref}
	h.tracker = tr
	for i := range h.stripes {
		st := &h.stripes[i]
		for j := range st.users {
			h.reseed(st, j, tr)
		}
	}
	return tr, true
}

// reseed recomputes the sum of the user at pos from its bins, at the
// tracker's reference instant. A bin too far ahead of the reference to be
// represented leaves the user dirty. The stripe's write lock must be held.
func (h *Histogram) reseed(st *stripe, pos int, tr *expTracker) {
	u := &st.users[pos]
	u.sum = 0
	st.flags[pos] &^= dirty
	for _, b := range st.binsAt(pos) {
		w, ok := tr.weightAtRef(h.midTime(b.start))
		if !ok {
			st.flags[pos] |= dirty
			return
		}
		u.sum += b.v * w
	}
}

// rebase moves the tracker's reference instant to `to`, advancing every
// clean sum with one scalar multiply (dirty sums are re-seeded by the same
// pass). Called by a cursor pass only, with all stripe write locks held.
func (h *Histogram) rebase(tr *expTracker, to time.Time) {
	f := math.Exp2(-float64(to.Sub(tr.ref)) / float64(tr.halfLife))
	for i := range h.stripes {
		st := &h.stripes[i]
		for j := range st.users {
			if st.flags[j]&dirty == 0 {
				st.users[j].sum *= f
			}
		}
	}
	tr.ref = to
}

// future reports whether the newest bin of the user at pos starts after
// nowNs (unix nanoseconds): BinAge holds that bin's age until it starts,
// which no reference-instant sum can express. Kept on int64 arithmetic over
// the newest-start column because a totals pass evaluates it once per user.
func (st *stripe) future(pos int, nowNs int64) bool {
	return st.newest[pos]*int64(time.Second) > nowNs
}

// clampedSum is the exact per-bin half-life total of bins at `now`; hl is
// the half-life in nanoseconds.
func (h *Histogram) clampedSum(bins []bin, now time.Time, hl float64) float64 {
	var sum float64
	for _, b := range bins {
		sum += b.v * math.Exp2(-float64(BinAge(now, time.Unix(b.start, 0), h.binWidth))/hl)
	}
	return sum
}

// accumExp adds half-life totals at `now` into dst. When the tracker has
// halfLife, a clean user whose newest bin has started is its sum times the
// one scalar from the tracker's reference to `now`; every other user, and
// every user when no tracker has halfLife, is the exact per-bin walk. It
// writes nothing: any stripe lock held.
func (h *Histogram) accumExp(dst map[string]float64, now time.Time, halfLife time.Duration) {
	tr := h.tracker
	if tr != nil && tr.halfLife != halfLife {
		tr = nil
	}
	var factor float64
	if tr != nil {
		factor = refScale(halfLife, tr.ref, now)
	}
	hl := float64(halfLife)
	nowNs := now.UnixNano()
	for i := range h.stripes {
		st := &h.stripes[i]
		for j := range st.users {
			if tr == nil || st.flags[j]&dirty != 0 || st.future(j, nowNs) {
				dst[st.names[j]] += h.clampedSum(st.binsAt(j), now, hl)
				continue
			}
			dst[st.names[j]] += st.users[j].sum * factor
		}
	}
}
