package fit

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the sample median. The paper follows Downey and Feitelson in
// preferring medians over means as the outlier-resilient summary statistic
// for inter-arrival times and durations.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the p-quantile of xs by linear interpolation between
// order statistics (type-7, the Matlab/R default).
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= n {
		return s[n-1]
	}
	return s[i] + frac*(s[i+1]-s[i])
}

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (which is copied).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of sample points <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// Move past ties so the ECDF is right-continuous.
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Histogram bins xs into nbins equal-width bins over [lo, hi]. Values outside
// the range are clamped into the first/last bin. It returns bin left edges
// and counts.
func Histogram(xs []float64, lo, hi float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 || !(hi > lo) {
		return nil, nil
	}
	edges = make([]float64, nbins)
	counts = make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return edges, counts
}

// HistogramDensity converts histogram counts to an empirical density
// (probability per unit x), matching the normalized histograms of Figure 5.
func HistogramDensity(counts []int, binWidth float64, total int) []float64 {
	out := make([]float64, len(counts))
	if total == 0 || binWidth <= 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / (float64(total) * binWidth)
	}
	return out
}

// Autocorrelation returns the sample autocorrelation function of xs at lags
// 0..maxLag, as used by the paper's periodicity analysis ("analyzed for
// periodicity using auto correlation functions").
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n == 0 || maxLag < 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	m := Mean(xs)
	var c0 float64
	for _, x := range xs {
		d := x - m
		c0 += d * d
	}
	out := make([]float64, maxLag+1)
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		var c float64
		for i := 0; i+lag < n; i++ {
			c += (xs[i] - m) * (xs[i+lag] - m)
		}
		out[lag] = c / c0
	}
	return out
}

// DominantLag returns the lag (>= minLag) with the highest autocorrelation
// and that correlation value. It returns lag 0 when no lag qualifies.
func DominantLag(acf []float64, minLag int) (lag int, value float64) {
	best, bestV := 0, math.Inf(-1)
	for l := minLag; l < len(acf); l++ {
		if acf[l] > bestV {
			best, bestV = l, acf[l]
		}
	}
	if best == 0 {
		return 0, 0
	}
	return best, bestV
}
