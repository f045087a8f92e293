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
// a bin) and a Cursor turns that into usage.DeltaSets over an ordered set of
// histograms, all read at one common reference instant and summed in the
// given order. The cursor's pass is the only writer of the sums and of
// their reference instant (incremental.go), so nothing moves them between
// two passes but mutations, which list their users.
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
// rebaseHalfLives behind `now` and never ahead of it), when a histogram
// joined the set, when d changed, when `now` went backwards, and when so
// many users changed that a delta does not pay (DeltaPays).
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
			sum += h.refSum(name, now, ds.Scale)
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
// Advance and when a histogram has not been through a pass yet (a new
// mirror): the next Advance will be Full.
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
		if !h.accumRefSums(ds.Totals, now, ds.Scale) {
			return DeltaSet{}, false
		}
	}
	ds.Users = len(ds.Totals)
	return ds, true
}

// drainChanged is one cursor pass over the histogram, and the only place
// its incremental sums are written: it aligns the tracker for halfLife with
// ref (registering or rebasing it as needed; dropping it without decay),
// empties the change lists and returns the users whose value may differ
// from what the previous pass saw. reset reports that the previous pass is
// no basis for a delta: every user has to be re-read.
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
	h.tracker = tr
	nowNs := now.UnixNano()
	first := !h.cursorOn
	reset = reset || first || nowNs < h.cursorNow
	h.cursorOn, h.cursorNow = true, nowNs

	for i := range h.stripes {
		st := &h.stripes[i]
		st.settleArena(first)
		// Both lists are rebuilt from nothing each pass, so a burst does
		// not leave its capacity behind in every stripe.
		listed, wasClamped := st.changed, st.clamped
		st.changed, st.clamped = nil, nil
		if reset {
			for j := range st.users {
				st.flags[j] &^= marked
				h.settle(st, j, tr, nowNs)
			}
			continue
		}
		// Users clamped at the previous pass are looked at again: their
		// value moved with `now`, or the clamp has lifted.
		for _, name := range wasClamped {
			if pos, _, ok := st.find(name); ok && st.flags[pos]&marked == 0 {
				st.flags[pos] |= marked
				listed = append(listed, name)
			}
		}
		for _, name := range listed {
			if pos, _, ok := st.find(name); ok {
				if st.flags[pos]&marked == 0 {
					continue // listed twice: removed and re-created between passes
				}
				st.flags[pos] &^= marked
				h.settle(st, int(pos), tr, nowNs)
			}
			changed = append(changed, name)
		}
	}
	return changed, reset
}

// settle leaves the user at pos ready to be read after a cursor pass:
// listed as clamped while its newest bin starts after the pass, its sum
// re-seeded if a mutation had made it dirty. The stripe's write lock must be
// held.
func (h *Histogram) settle(st *stripe, pos int, tr *expTracker, nowNs int64) {
	if tr == nil {
		return
	}
	if st.future(pos, nowNs) {
		st.clamped = append(st.clamped, st.names[pos])
		return
	}
	if st.flags[pos]&dirty != 0 {
		h.reseed(st, pos, tr)
	}
}

// refValue is the canonical sum of the user at pos: the plain sum without
// decay, the clamped per-bin total re-expressed at the reference while its
// newest bin starts after `now` (or while its sum is dirty, which a cursor
// pass never leaves behind), the tracker's sum otherwise. Any stripe lock
// held.
func (h *Histogram) refValue(st *stripe, pos int, now time.Time, scale float64) float64 {
	tr := h.tracker
	if tr == nil {
		var sum float64
		for _, b := range st.binsAt(pos) {
			sum += b.v
		}
		return sum
	}
	if st.flags[pos]&dirty == 0 && !st.future(pos, now.UnixNano()) {
		return st.users[pos].sum
	}
	return h.clampedSum(st.binsAt(pos), now, float64(tr.halfLife)) / scale
}

// refSum returns one user's canonical sum (0 when unknown).
func (h *Histogram) refSum(user string, now time.Time, scale float64) float64 {
	st := h.stripeFor(user)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if pos, _, ok := st.find(user); ok {
		return h.refValue(st, int(pos), now, scale)
	}
	return 0
}

// accumRefSums adds every user's canonical sum into dst in one
// read-consistent pass; false, with dst untouched, when no cursor pass has
// drained the histogram yet.
func (h *Histogram) accumRefSums(dst map[string]float64, now time.Time, scale float64) bool {
	h.rlockAll()
	defer h.runlockAll()
	if !h.cursorOn {
		return false
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		for j := range st.users {
			dst[st.names[j]] += h.refValue(st, j, now, scale)
		}
	}
	return true
}
