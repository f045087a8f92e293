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
// Two deviations from the pure algebra are handled explicitly:
//
//   - Clamping: a bin that starts after `now` is held at the weight of a
//     bin just opened (BinAge stops at minus half a bin), which no sum at a
//     reference instant expresses. Users whose newest bin has not started
//     are computed exactly per-bin; the incremental sum takes over once it
//     has. A started bin needs none of this: it is valued at its midpoint
//     from the moment it opens, 2^(+x) in its first half, which is what the
//     sum holds.
//   - Conditioning: the reference instant is rebased to `now` whenever it
//     drifts more than rebaseHalfLives half-lives, which bounds every
//     stored magnitude within 2^±rebaseHalfLives of its true scale; a
//     mutation that cannot be represented that way (a far-future bin, or a
//     value decrease whose cancellation could compound) marks the user
//     dirty, and the next pass re-seeds that user's sum from its bins.
//
// The per-user sums are also what the change cursor (cursor.go) hands down
// the pipeline in place of decayed totals; a cursor pins its tracker's
// reference instant and notices when a totals pass moved it.
//
// The equivalence property tests in equivalence_test.go pin this path to
// ≤1e-9 relative error against the naive per-bin sum.

// rebaseHalfLives bounds how far (in half-lives) the reference instant may
// drift from `now`, and how far a bin midpoint may sit in the future of the
// reference before the delta update is abandoned for a recompute. 16 keeps
// intermediate magnitudes within 2^±16 of true scale, so accumulated
// rounding stays orders of magnitude under the 1e-9 equivalence bound.
const rebaseHalfLives = 16.0

// expTracker is the histogram's incremental state for one half-life. A
// histogram keeps one: asking it for another half-life registers a new
// tracker in its place, at the cost of one walk over every bin. The per-user
// sums live in userBins.exp. Guarded by the stripe locks: replaced and
// rebased only under all stripe write locks.
type expTracker struct {
	halfLife time.Duration
	ref      time.Time // reference instant of the per-user sums
}

// expState is one user's sum under the histogram's tracker.
type expState struct {
	sum   float64 // Σ v·2^(-(ref-mid)/H), valid when !dirty
	dirty bool    // sum unreliable; recompute from bins at next pass
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

// trackerAdd folds a bin delta into the user's sum under the registered
// tracker and, once a change cursor is attached, lists the user as changed.
// The owning stripe's write lock must be held and delta must be non-zero.
// Negative deltas (bin overwritten downward or removed) poison the running
// sum with potential cancellation, so they mark the user dirty instead;
// exchange overwrites are monotone in the common case, keeping this rare.
func (h *Histogram) trackerAdd(st *stripe, name string, u *userBins, start int64, delta float64) {
	if h.cursorOn {
		h.markChanged(st, name, u)
	}
	tr := h.tracker
	if tr == nil || u.exp.dirty {
		return
	}
	if delta < 0 {
		u.exp.dirty = true
		return
	}
	w, ok := tr.weightAtRef(h.midTime(start))
	if !ok {
		u.exp.dirty = true
		return
	}
	u.exp.sum += delta * w
}

// trackerFor returns the tracker for halfLife, registering it at reference
// instant ref in place of any other; fresh reports a registration, which
// walks every bin once to seed the per-user sums. All stripe write locks
// must be held.
func (h *Histogram) trackerFor(halfLife time.Duration, ref time.Time) (tr *expTracker, fresh bool) {
	if tr = h.tracker; tr != nil && tr.halfLife == halfLife {
		return tr, false
	}
	tr = &expTracker{halfLife: halfLife, ref: ref}
	h.tracker = tr
	for i := range h.stripes {
		for _, u := range h.stripes[i].users {
			h.reseed(u, tr)
		}
	}
	return tr, true
}

// reseed recomputes one user's sum from its bins, at the tracker's
// reference instant. A bin too far ahead of the reference to be represented
// leaves the user dirty. The owning stripe's write lock must be held.
func (h *Histogram) reseed(u *userBins, tr *expTracker) {
	es := &u.exp
	es.sum, es.dirty = 0, false
	for _, b := range u.bins {
		w, ok := tr.weightAtRef(h.midTime(b.start))
		if !ok {
			es.dirty = true
			return
		}
		es.sum += b.v * w
	}
}

// rebase moves the tracker's reference instant to `to`, advancing every
// clean sum with one scalar multiply (dirty sums are recomputed from their
// bins when next read). All stripe write locks must be held.
func (h *Histogram) rebase(tr *expTracker, to time.Time) {
	f := math.Exp2(-float64(to.Sub(tr.ref)) / float64(tr.halfLife))
	for i := range h.stripes {
		for _, u := range h.stripes[i].users {
			if !u.exp.dirty {
				u.exp.sum *= f
			}
		}
	}
	tr.ref = to
}

// future reports whether u's newest bin starts after nowNs (unix
// nanoseconds): BinAge holds that bin's age until it starts, which no
// reference-instant sum can express. Kept on int64 arithmetic because a
// totals pass evaluates it once per user.
func (h *Histogram) future(u *userBins, nowNs int64) bool {
	return len(u.bins) > 0 && u.lastStart()*int64(time.Second) > nowNs
}

// clampedSum is the exact per-bin half-life total of u at `now`; hl is the
// half-life in nanoseconds.
func (h *Histogram) clampedSum(u *userBins, now time.Time, hl float64) float64 {
	var sum float64
	for _, b := range u.bins {
		sum += b.v * math.Exp2(-float64(BinAge(now, time.Unix(b.start, 0), h.binWidth))/hl)
	}
	return sum
}

// accumExp adds half-life totals via the incremental sums. All stripe write
// locks must be held.
func (h *Histogram) accumExp(dst map[string]float64, now time.Time, halfLife time.Duration) {
	tr, _ := h.trackerFor(halfLife, now)
	hl := float64(halfLife)
	drift := float64(now.Sub(tr.ref)) / hl
	if math.Abs(drift) > rebaseHalfLives {
		h.rebase(tr, now)
		drift = 0
	}
	factor := math.Exp2(-drift)
	nowNs := now.UnixNano()
	for i := range h.stripes {
		st := &h.stripes[i]
		for name, u := range st.users {
			es := &u.exp
			fut := h.future(u, nowNs)
			if es.dirty && !fut {
				// The re-seed rewrites a persisted sum: a change cursor
				// reading this tracker has to see the user again.
				h.reseed(u, tr)
				if h.cursorTr == tr {
					h.markChanged(st, name, u)
				}
			}
			if fut || es.dirty {
				dst[name] += h.clampedSum(u, now, hl)
				continue
			}
			dst[name] += es.sum * factor
		}
	}
}
