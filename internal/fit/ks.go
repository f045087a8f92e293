package fit

import (
	"math"
	"sort"

	"repro/internal/dist"
)

// KolmogorovSmirnov returns the one-sample Kolmogorov-Smirnov statistic
//
//	D = sup_x | F_n(x) - F(x) |
//
// between the empirical distribution of xs and the model d. This is the
// goodness-of-fit number reported in the KS columns of Tables II and III.
func KolmogorovSmirnov(xs []float64, d dist.Dist) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var dmax float64
	for i, x := range s {
		f := d.CDF(x)
		lo := float64(i) / float64(n)   // F_n just below x
		hi := float64(i+1) / float64(n) // F_n at x
		if v := math.Abs(f - lo); v > dmax {
			dmax = v
		}
		if v := math.Abs(f - hi); v > dmax {
			dmax = v
		}
	}
	return dmax
}
