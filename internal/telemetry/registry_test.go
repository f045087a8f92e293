package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "c")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	g := reg.Gauge("g", "g")
	g.Set(10)
	g.Add(-4)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %g, want 6", got)
	}
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same_total", "x")
	b := reg.Counter("same_total", "x")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	v1 := reg.CounterVec("vec_total", "x", "l")
	v2 := reg.CounterVec("vec_total", "x", "l")
	if v1.With("a") != v2.With("a") {
		t.Error("vec re-registration returned a different series")
	}
}

func TestMismatchedReregistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("m_total", "x")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "h", []float64{1, 2, 5})
	// A value exactly on a boundary counts into that bucket (le semantics).
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 6} {
		h.Observe(v)
	}
	cum := h.Snapshot() // cumulative: le=1, le=2, le=5, +Inf
	want := []uint64{2, 4, 5, 6}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d (full: %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 16 {
		t.Errorf("sum = %g, want 16", h.Sum())
	}
}

func TestBucketNormalization(t *testing.T) {
	reg := NewRegistry()
	// Unsorted, duplicated buckets are normalized at registration.
	h := reg.Histogram("norm_seconds", "h", []float64{5, 1, 2, 2})
	h.Observe(1.5)
	h.Observe(3)
	got := h.Snapshot() // cumulative: le=1, le=2, le=5, +Inf
	want := []uint64{0, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("cumulative counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative counts = %v, want %v", got, want)
		}
	}
}

func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("test_requests_total", "Total requests.", "route", "code").
		With("/a", "200").Add(3)
	reg.Gauge("test_temp_celsius", "Temp.").Set(21.5)
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(0.5) // boundary: lands in le="0.5"
	h.Observe(4)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.5"} 2
test_latency_seconds_bucket{le="2"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 4.75
test_latency_seconds_count 3
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{route="/a",code="200"} 3
# HELP test_temp_celsius Temp.
# TYPE test_temp_celsius gauge
test_temp_celsius 21.5
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestExpositionEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("esc_total", "line one\nline \\two", "l").
		With("quote\"back\\slash\nnewline").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc_total line one\nline \\two`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{l="quote\"back\\slash\nnewline"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestEmptyFamiliesAreOmitted(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("unused_total", "never has series", "l") // no With call
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("series-less family rendered:\n%s", sb.String())
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cv := reg.CounterVec("conc_total", "c", "worker")
			gv := reg.GaugeVec("conc_gauge", "g", "worker")
			hv := reg.HistogramVec("conc_seconds", "h", DefBuckets(), "worker")
			label := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				cv.With(label).Inc()
				gv.With(label).Set(float64(i))
				hv.With(label).Observe(float64(i) / iters)
				if i%100 == 0 {
					var sb strings.Builder
					_ = reg.WritePrometheus(&sb) // concurrent scrape
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	cv := reg.CounterVec("conc_total", "c", "worker")
	for _, l := range []string{"a", "b", "c", "d"} {
		total += cv.With(l).Value()
	}
	if total != workers*iters {
		t.Errorf("total = %g, want %d", total, workers*iters)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
