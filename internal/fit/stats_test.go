package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Error("the mean of no data should be 0")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Median(xs) != 3 {
		t.Errorf("Median = %g", Median(xs))
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("Q(0) = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("Q(1) = %g", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("Q(0.25) = %g", q)
	}
	if q := Quantile([]float64{1, 2}, 0.5); q != 1.5 {
		t.Errorf("even median = %g", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("ECDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestECDFPropertyMonotone(t *testing.T) {
	f := func(data []float64) bool {
		if len(data) == 0 {
			return true
		}
		e := NewECDF(data)
		prev := -1.0
		for _, x := range data {
			v := e.At(x)
			if v < 0 || v > 1 {
				return false
			}
			_ = prev
		}
		// sample max must map to 1
		mx := data[0]
		for _, x := range data {
			if x > mx {
				mx = x
			}
		}
		return e.At(mx) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	edges, counts := Histogram([]float64{0, 0.5, 1.5, 2.5, 9.9, -5, 15}, 0, 10, 5)
	if len(edges) != 5 || len(counts) != 5 {
		t.Fatalf("lengths %d %d", len(edges), len(counts))
	}
	if edges[0] != 0 || edges[4] != 8 {
		t.Errorf("edges = %v", edges)
	}
	// -5 clamps into bin 0; 15 clamps into bin 4.
	want := []int{4, 1, 0, 0, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
			break
		}
	}
	if e, c := Histogram(nil, 0, 0, 5); e != nil || c != nil {
		t.Error("degenerate range should return nil")
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i) / 100 // uniform on [0,10)
	}
	_, counts := Histogram(xs, 0, 10, 20)
	dens := HistogramDensity(counts, 0.5, len(xs))
	var integral float64
	for _, d := range dens {
		integral += d * 0.5
	}
	if math.Abs(integral-1) > 1e-12 {
		t.Errorf("density integrates to %g", integral)
	}
}

func TestAutocorrelationDetectsPeriod(t *testing.T) {
	// A sine with period 25 must show an ACF peak at lag 25.
	n := 500
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 25)
	}
	acf := Autocorrelation(xs, 60)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Errorf("ACF(0) = %g, want 1", acf[0])
	}
	lag, v := DominantLag(acf, 10)
	if lag != 25 {
		t.Errorf("dominant lag = %d (r=%g), want 25", lag, v)
	}
	if v < 0.9 {
		t.Errorf("peak correlation = %g, want ~1", v)
	}
}

func TestAutocorrelationWhiteNoiseIsFlat(t *testing.T) {
	xs := make([]float64, 2000)
	seed := uint64(12345)
	for i := range xs {
		seed = seed*6364136223846793005 + 1442695040888963407
		xs[i] = float64(seed>>11) / float64(1<<53)
	}
	acf := Autocorrelation(xs, 50)
	for lag := 1; lag <= 50; lag++ {
		if math.Abs(acf[lag]) > 0.1 {
			t.Errorf("white-noise ACF(%d) = %g", lag, acf[lag])
		}
	}
}

func TestAutocorrelationEdgeCases(t *testing.T) {
	if acf := Autocorrelation(nil, 5); acf != nil {
		t.Error("empty input should return nil")
	}
	acf := Autocorrelation([]float64{7, 7, 7}, 2)
	if acf[0] != 1 {
		t.Errorf("constant series ACF(0) = %g", acf[0])
	}
	// maxLag beyond length clamps
	acf = Autocorrelation([]float64{1, 2}, 100)
	if len(acf) != 2 {
		t.Errorf("clamped ACF length = %d", len(acf))
	}
}
