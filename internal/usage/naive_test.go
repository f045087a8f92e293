package usage

import (
	"sort"
	"time"
)

// seedDecayedTotals is the reference implementation the optimized paths are
// pinned against: the seed-style per-user pass that collects and sorts each
// user's bin keys and evaluates the decay weight for every bin of every
// user individually. It is deliberately independent of the incremental
// accumulators and shares only the definition of a bin's age (BinAge) with
// them — property tests compare against it, and the benchmarks use it as
// the pre-optimization baseline.
func seedDecayedTotals(h *Histogram, now time.Time, d Decay) map[string]float64 {
	if d == nil {
		d = None{}
	}
	out := map[string]float64{}
	h.rlockAll()
	defer h.runlockAll()
	for i := range h.stripes {
		for name, u := range h.stripes[i].users {
			// Mirror the seed's map-of-bins shape: rebuild the key set,
			// sort it, then weigh bin by bin.
			keys := make([]int64, 0, len(u.bins))
			vals := make(map[int64]float64, len(u.bins))
			for _, b := range u.bins {
				keys = append(keys, b.start)
				vals[b.start] = b.v
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			var sum float64
			for _, k := range keys {
				sum += vals[k] * d.Weight(BinAge(now, time.Unix(k, 0), h.binWidth))
			}
			out[name] = sum
		}
	}
	return out
}
