package usage

import (
	"math"
	"sync"
	"time"
)

// Reference-instant sums and the change cursor.
//
// Every decay is a half-life (decay.go), so a user's decayed total at `now`
// is one shared scalar times a sum that does not depend on `now`:
//
//	total(now) = 2^(-(now-ref)/H) · Σ v_i · 2^(-(ref-mid_i)/H)
//
// and the fairshare calculation reads usage only as ratios within sibling
// groups, so the scalar cancels. The sum at the reference instant is
// therefore the canonical usage value handed down the pipeline (without
// decay it is the plain sum and the scalar is 1): it changes only when the
// user's bins change, so "which users changed since the last refresh" stays
// as sparse as the completions that arrived, whatever the half-life.
//
// The histogram records which users changed (a mutation that really changed
// a bin, a dirty sum re-seeded by a totals pass) and a Cursor turns that
// into usage.DeltaSets over an ordered set of histograms, all read at one
// common reference instant and summed in the given order.
//
// A started bin is valued at its midpoint from the moment it opens (BinAge),
// so a completion in the open bin is part of the sum like any other and its
// user is emitted once, when the usage arrives: the clock alone never moves
// a sum. The clamp is the one case where the value does depend on `now`: a
// bin that starts after `now` (clock skew, a bad report) is held at the
// weight of a bin just opened. A user with such a bin is valued by the exact
// per-bin walk divided by the scale, is re-emitted on every pass while the
// clamp holds and once more on the pass after the bin has started.

// refScale is the scalar that turns sums at ref into decayed totals at now.
func refScale(halfLife time.Duration, ref, now time.Time) float64 {
	if halfLife <= 0 {
		return 1
	}
	return math.Exp2(-float64(now.Sub(ref)) / float64(halfLife))
}

// Cursor is the change cursor of one consumer over an ordered set of
// same-width histograms (a USS's local histogram followed by its remote
// mirrors). Advance reports the users whose sums changed since the previous
// Advance; Sums materialises every user's sum in the same scale. The zero
// value is ready to use. A histogram serves one cursor at a time.
type Cursor struct {
	mu       sync.Mutex
	on       bool
	halfLife time.Duration
	ref      time.Time
}

// Advance moves the cursor to `now` and returns the change set since the
// previous call: Changed maps every user whose sum changed in any histogram
// to its new sum over all of them (0 when the user is gone), Scale and
// Reference say how to read the values, Users is the largest histogram's
// population (a lower bound of the union's). The set is Full — nothing
// listed, the consumer must re-read everything through Sums — on the first
// call, when the reference instant had to move (it is kept at most
// rebaseHalfLives behind `now` and never ahead of it), when a histogram's
// tracker was registered, re-registered for another half-life in between or
// rebased by someone else, when d changed, when `now` went backwards, and
// when so many users changed that a delta does not pay (DeltaPays).
func (c *Cursor) Advance(hists []*Histogram, now time.Time, d Decay) DeltaSet {
	hl := halfLifeOf(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	full := !c.on || c.halfLife != hl
	if age := now.Sub(c.ref); hl > 0 && (full || age < 0 || float64(age) > rebaseHalfLives*float64(hl)) {
		c.ref, full = now, true
	}
	if hl == 0 {
		c.ref = time.Time{}
	}
	c.on, c.halfLife = true, hl

	ds := DeltaSet{Scale: refScale(hl, c.ref, now), Reference: c.ref}
	lists := make([][]string, len(hists))
	for i, h := range hists {
		var reset bool
		lists[i], reset = h.drainChanged(hl, c.ref, now)
		full = full || reset
		ds.Users = max(ds.Users, h.UserCount())
	}
	if full {
		ds.Full = true
		return ds
	}
	// The union first: a change set too large to pay off is not worth
	// evaluating.
	listed := 0
	for _, list := range lists {
		listed += len(list)
	}
	ds.Changed = make(map[string]float64, listed)
	for _, list := range lists {
		for _, name := range list {
			ds.Changed[name] = 0
		}
	}
	if !DeltaPays(len(ds.Changed), ds.Users) {
		ds.Full, ds.Changed = true, nil
		return ds
	}
	for name := range ds.Changed {
		var sum float64
		for _, h := range hists {
			v, ok := h.refSum(name, hl, c.ref, now, ds.Scale)
			if !ok {
				// A totals pass rebased or replaced the tracker between
				// the drain and this read.
				ds.Full, ds.Changed = true, nil
				return ds
			}
			sum += v
		}
		ds.Changed[name] = sum
	}
	return ds
}

// Sums returns every user's sum at the cursor's reference instant, as a
// Full set evaluated at `now` (which only matters for clamped users, whose
// newest bin has not started). It does not move the cursor. Right after an
// Advance at the same `now` the result equals, bit for bit, the last Sums
// overwritten with every change set since. ok is false before the first
// Advance and when a histogram's tracker no longer sits at the cursor's
// reference (a new mirror, another half-life asked of it, a foreign
// rebase): the next Advance will be Full.
func (c *Cursor) Sums(hists []*Histogram, now time.Time) (ds DeltaSet, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.on {
		return DeltaSet{}, false
	}
	ds = DeltaSet{Full: true, Scale: refScale(c.halfLife, c.ref, now), Reference: c.ref}
	n := 0
	for _, h := range hists {
		n = max(n, h.UserCount())
	}
	ds.Totals = make(map[string]float64, n)
	for _, h := range hists {
		if !h.accumRefSums(ds.Totals, c.halfLife, c.ref, now, ds.Scale) {
			return DeltaSet{}, false
		}
	}
	ds.Users = len(ds.Totals)
	return ds, true
}

// markChanged lists user in its stripe's change list, once. The stripe's
// write lock must be held.
func (h *Histogram) markChanged(st *stripe, name string, u *userBins) {
	if !u.marked {
		u.marked = true
		st.changed = append(st.changed, name)
	}
}

// drainChanged is one cursor pass over the histogram: it aligns the tracker
// for halfLife with ref (registering or rebasing it as needed; no tracker
// without decay), empties the change lists and returns the users whose
// value may differ from what the previous pass saw. reset reports that the
// previous pass is no basis for a delta: every user has to be re-read.
func (h *Histogram) drainChanged(halfLife time.Duration, ref, now time.Time) (changed []string, reset bool) {
	h.lockAll()
	defer h.unlockAll()
	var tr *expTracker
	if halfLife > 0 {
		tr, reset = h.trackerFor(halfLife, ref)
		if !tr.ref.Equal(ref) {
			h.rebase(tr, ref)
			reset = true
		}
	}
	nowNs := now.UnixNano()
	reset = reset || !h.cursorOn || h.cursorTr != tr || nowNs < h.cursorNow
	h.cursorOn, h.cursorTr, h.cursorNow = true, tr, nowNs

	for i := range h.stripes {
		st := &h.stripes[i]
		// Both lists are rebuilt from nothing each pass, so a burst does
		// not leave its capacity behind in every stripe.
		listed, wasClamped := st.changed, st.clamped
		st.changed, st.clamped = nil, nil
		if reset {
			for name, u := range st.users {
				u.marked = false
				h.settle(st, name, u, tr, nowNs)
			}
			continue
		}
		// Users clamped at the previous pass are looked at again: their
		// value moved with `now`, or the clamp has lifted.
		for _, name := range wasClamped {
			if u := st.users[name]; u != nil && !u.marked {
				u.marked = true
				listed = append(listed, name)
			}
		}
		for _, name := range listed {
			if u := st.users[name]; u != nil {
				if !u.marked {
					continue // listed twice: removed and re-created between passes
				}
				u.marked = false
				h.settle(st, name, u, tr, nowNs)
			}
			changed = append(changed, name)
		}
	}
	return changed, reset
}

// settle leaves one user ready to be read after a cursor pass: listed as
// clamped while its newest bin starts after the pass, its sum re-seeded if a
// mutation had made it dirty. The stripe's write lock must be held.
func (h *Histogram) settle(st *stripe, name string, u *userBins, tr *expTracker, nowNs int64) {
	if tr == nil {
		return
	}
	if h.future(u, nowNs) {
		st.clamped = append(st.clamped, name)
		return
	}
	if u.exp.dirty {
		h.reseed(u, tr)
	}
}

// cursorTracker returns the tracker the cursor reads (nil without decay)
// and whether it still is what a pass at (halfLife, ref) left behind. Any
// stripe lock held.
func (h *Histogram) cursorTracker(halfLife time.Duration, ref time.Time) (tr *expTracker, ok bool) {
	if !h.cursorOn {
		return nil, false
	}
	if halfLife <= 0 {
		return nil, h.cursorTr == nil
	}
	tr = h.tracker
	return tr, tr != nil && tr == h.cursorTr && tr.halfLife == halfLife && tr.ref.Equal(ref)
}

// refValue is u's canonical sum: the plain sum without decay, the clamped
// per-bin total re-expressed at the reference while its newest bin starts
// after `now` (or while its sum is dirty, which a cursor pass never leaves
// behind), the tracker's sum otherwise. Any stripe lock held.
func (h *Histogram) refValue(u *userBins, tr *expTracker, now time.Time, scale float64) float64 {
	if tr == nil {
		var sum float64
		for _, b := range u.bins {
			sum += b.v
		}
		return sum
	}
	if es := u.exp; !es.dirty && !h.future(u, now.UnixNano()) {
		return es.sum
	}
	return h.clampedSum(u, now, float64(tr.halfLife)) / scale
}

// refSum returns one user's canonical sum (0 when unknown); ok is false
// when the cursor's tracker moved since the pass.
func (h *Histogram) refSum(user string, halfLife time.Duration, ref, now time.Time, scale float64) (float64, bool) {
	st := h.stripeFor(user)
	st.mu.RLock()
	defer st.mu.RUnlock()
	tr, ok := h.cursorTracker(halfLife, ref)
	if !ok {
		return 0, false
	}
	u := st.users[user]
	if u == nil {
		return 0, true
	}
	return h.refValue(u, tr, now, scale), true
}

// accumRefSums adds every user's canonical sum into dst in one
// read-consistent pass; false when the cursor's tracker moved since the
// pass (dst is then partly filled).
func (h *Histogram) accumRefSums(dst map[string]float64, halfLife time.Duration, ref, now time.Time, scale float64) bool {
	h.rlockAll()
	defer h.runlockAll()
	tr, ok := h.cursorTracker(halfLife, ref)
	if !ok {
		return false
	}
	for i := range h.stripes {
		for name, u := range h.stripes[i].users {
			dst[name] += h.refValue(u, tr, now, scale)
		}
	}
	return true
}
