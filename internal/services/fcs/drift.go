package fcs

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/fairshare"
	"repro/internal/par"
	"repro/internal/telemetry/span"
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
	// DefaultDriftTopK.
	Entries []DriftEntry
}

// DefaultDriftTopK is how many worst-drift users each snapshot's drift table
// retains (max/mean still cover everyone).
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

// driftPart is one drift-pass worker's share of the drift summary: the largest
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
// Error is directly comparable across tree shapes.
func (p *driftPart) add(ix *fairshare.Index, lo int, target, actual []float64) float64 {
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

// lazyDrift is a snapshot's fairness-drift summary: the k worst-drift
// entries and the population's max and mean error. It is computed by the
// drift pass at most once, on the first Drift(), and shared by every
// snapshot over the same index — a no-op republish and a projection change
// reuse it, since drift depends on neither the timestamp nor the projection.
type lazyDrift struct {
	once      sync.Once
	entries   []DriftEntry
	max, mean float64
}

// get returns the summary of the index ix, running the drift pass on the
// first call; the pass records an fcs.drift span into rec.
func (d *lazyDrift) get(ix *fairshare.Index, rec *span.Recorder) *lazyDrift {
	d.once.Do(func() {
		_, sp := span.Start(span.WithRecorder(context.Background(), rec), "fcs.drift")
		sp.SetAttrInt("users", int64(ix.Len()))
		d.entries, d.max, d.mean = driftPass(ix, DefaultDriftTopK)
		sp.End()
	})
	return d
}

// driftPass is the one population walk of the drift summary. Segment by
// segment it has the index fold each leaf's target and usage products down
// the tree (fairshare.Index.SegmentShares) and folds each leaf's error
// |actual − target|. It returns the k worst-drift entries (all of them when
// k < 0), worst first, and the population's max and mean error.
//
// Segments fan out over cores for large populations (par.For). The result
// does not depend on which worker gets which: the error sum is kept per
// segment and the partial sums are added in segment order, and (Error desc,
// pos asc) is a total order, so the k best of the workers' own k best are
// the k best.
func driftPass(ix *fairshare.Index, k int) (drift []DriftEntry, driftMax, driftMean float64) {
	n, segs := ix.Len(), ix.Segments()
	if k < 0 || k > n {
		k = n
	}
	// One scratch allocation holds both products: every leaf's target
	// product, then every leaf's usage product.
	shares := make([]float64, 2*n)
	target, actual := shares[:n:n], shares[n:]
	sums := make([]float64, segs)
	parts := make([]driftPart, par.Workers(n, segs))
	for w := range parts {
		parts[w].k = k
	}
	par.For(n, segs, func(w, s int) {
		lo, hi := ix.SegmentRange(s)
		ix.SegmentShares(s, target[lo:hi], actual[lo:hi])
		sums[s] = parts[w].add(ix, lo, target[lo:hi], actual[lo:hi])
	})
	return mergeDrift(parts, sums, k, n)
}

// Drift returns the fairness-drift table of the currently published snapshot
// without triggering a refresh (zero table before the first computation),
// running the drift pass if no snapshot over its index has yet. The entries
// are shared with the snapshot and must be treated as read-only.
func (s *Service) Drift() DriftTable {
	sn := s.snap.Load()
	if sn == nil {
		return DriftTable{}
	}
	d := sn.drift.get(sn.index, s.cfg.Spans)
	return DriftTable{
		ComputedAt: sn.computedAt,
		MaxError:   d.max,
		MeanError:  d.mean,
		Entries:    d.entries,
	}
}
