package fcs

import (
	"container/heap"
	"math"
	"sort"
	"time"

	"repro/internal/fairshare"
	"repro/internal/vector"
)

// DriftEntry is one user's fairness drift: how far their effective usage
// share sits from the policy's target share. Target and Actual are the
// products of the per-level path shares/usages (the user's absolute slice of
// the whole grid), so Error is directly comparable across tree shapes.
type DriftEntry struct {
	User   string
	Target float64
	Actual float64
	Error  float64 // |Actual - Target|
}

// DriftTable is the fairness-drift view of one published snapshot.
type DriftTable struct {
	// ComputedAt is when the underlying snapshot was pre-calculated.
	ComputedAt time.Time
	// MaxError and MeanError summarize the whole population (not just the
	// retained entries).
	MaxError  float64
	MeanError float64
	// Entries is sorted by Error descending (worst drift first), capped at
	// the configured top-K.
	Entries []DriftEntry
}

// DefaultDriftTopK is the drift-table size when Config.DriftTopK is zero.
const DefaultDriftTopK = 100

// driftItem is a heap candidate: pos breaks Error ties so selection is a
// total order and the result is deterministic (bit-identical between a full
// and an incremental publish of the same snapshot).
type driftItem struct {
	entry DriftEntry
	pos   int
}

// driftHeap is a min-heap by (Error asc, pos desc): the root is the weakest
// retained candidate, evicted when a stronger one arrives.
type driftHeap []driftItem

func (h driftHeap) Len() int { return len(h) }
func (h driftHeap) Less(i, j int) bool {
	if h[i].entry.Error != h[j].entry.Error {
		return h[i].entry.Error < h[j].entry.Error
	}
	return h[i].pos > h[j].pos
}
func (h driftHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *driftHeap) Push(x any)   { *h = append(*h, x.(driftItem)) }
func (h *driftHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h driftHeap) better(err float64, pos int) bool {
	if err != h[0].entry.Error {
		return err > h[0].entry.Error
	}
	return pos < h[0].pos
}

// driftPart is one publish worker's share of the drift summary: the largest
// error it saw and its own k worst offenders, kept in a size-k min-heap so
// the pass costs O(n + m·log k) and only those k entries are materialized.
type driftPart struct {
	k   int
	max float64
	top driftHeap
}

// add folds one segment's share columns (its first leaf at position lo) into
// the part and returns the segment's error sum. Target and actual are the
// leaves' absolute slices of the grid under the policy and under usage, so
// Error is directly comparable across tree shapes. With percental set, each
// actual is replaced by the leaf's percental priority once it has been read.
func (p *driftPart) add(ix *fairshare.Index, lo int, target, actual []float64, percental bool) float64 {
	var sum float64
	worst, floor := p.max, p.floor()
	for j, a := range actual {
		t := target[j]
		e := math.Abs(a - t)
		sum += e
		if e > worst {
			worst = e
		}
		if !(e < floor) { // not certainly weaker than everything retained
			it := driftItem{
				entry: DriftEntry{User: ix.User(lo + j), Target: t, Actual: a, Error: e},
				pos:   lo + j,
			}
			if len(p.top) < p.k {
				heap.Push(&p.top, it)
			} else if p.k > 0 && p.top.better(e, it.pos) {
				p.top[0] = it
				heap.Fix(&p.top, 0)
			}
			floor = p.floor()
		}
		if percental {
			actual[j] = vector.Percental{}.Value(t, a)
		}
	}
	p.max = worst
	return sum
}

// floor is the error below which a candidate cannot enter the part: the
// weakest retained error once k are retained, nothing before that.
func (p *driftPart) floor() float64 {
	switch {
	case len(p.top) < p.k:
		return math.Inf(-1)
	case p.k == 0:
		return math.Inf(1)
	}
	return p.top[0].entry.Error
}

// mergeDrift combines the workers' parts and the per-segment error sums of
// an n-leaf population: worst first, DFS position as the deterministic
// tie-break (stable with respect to entry order).
func mergeDrift(parts []driftPart, sums []float64, k, n int) (drift []DriftEntry, driftMax, mean float64) {
	var all driftHeap
	for _, p := range parts {
		driftMax = max(driftMax, p.max)
		all = append(all, p.top...)
	}
	sort.Sort(sort.Reverse(all)) // the heap's order is weakest first
	all = all[:min(k, len(all))]
	drift = make([]DriftEntry, len(all))
	for i, it := range all {
		drift[i] = it.entry
	}
	var sum float64
	for _, s := range sums {
		sum += s
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return drift, driftMax, mean
}

// Drift returns the fairness-drift table of the currently published snapshot
// without triggering a refresh (zero table before the first computation).
// The entries are shared with the snapshot and must be treated as read-only.
func (s *Service) Drift() DriftTable {
	sn := s.snap.Load()
	if sn == nil {
		return DriftTable{}
	}
	return DriftTable{
		ComputedAt: sn.computedAt,
		MaxError:   sn.driftMax,
		MeanError:  sn.driftMean,
		Entries:    sn.drift,
	}
}
