// Package telemetry provides the dependency-free observability layer shared
// by every Aequus service: a concurrent metrics registry (counters, gauges,
// fixed-bucket histograms) with Prometheus text exposition, HTTP middleware
// that instruments handlers and propagates X-Aequus-Request-ID across
// service and site hops, and structured-logging helpers built on log/slog.
//
// The paper's evaluation (Section V) measures priority-query latency under
// batched submission, inter-site exchange traffic and libaequus cache
// effectiveness; this package is how a running deployment exposes exactly
// those quantities.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use. Registration
// is get-or-create: asking twice for the same name returns the same metric,
// so independently constructed services can share one registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	// hooks run at the start of every WritePrometheus call, letting
	// point-in-time gauges (runtime stats, uptime) refresh at scrape time.
	hooks []func()
	// runtimeDone guards one-time runtime-metric registration per registry.
	runtimeDone bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var std = NewRegistry()

// Default returns the process-wide default registry. Services fall back to
// it when their Config carries no explicit registry.
func Default() *Registry { return std }

// OrDefault returns r, or the default registry when r is nil.
func OrDefault(r *Registry) *Registry {
	if r == nil {
		return std
	}
	return r
}

// OnScrape registers a hook invoked at the start of every WritePrometheus
// call (concurrent scrapes may run hooks concurrently; hooks must be safe
// for that). Use it for metrics that are snapshots of external state — the
// Go runtime stats, process uptime — so they are fresh at scrape time
// without a background updater.
func (r *Registry) OnScrape(f func()) {
	if f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, f)
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// family is one named metric with a fixed label set, holding one series per
// distinct label-value combination.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram upper bounds (without +Inf)

	mu     sync.RWMutex
	series map[string]interface{} // label-values key -> *Counter|*Gauge|*Histogram
}

const keySep = "\xff"

func (f *family) get(values []string) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += keySep
		}
		key += v
	}
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	switch f.kind {
	case counterKind:
		m = &Counter{}
	case gaugeKind:
		m = &Gauge{}
	default:
		m = newHistogram(f.buckets)
	}
	f.series[key] = m
	return m
}

func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v (was %s%v)",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: normalizeBuckets(buckets),
		series:  map[string]interface{}{},
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func normalizeBuckets(b []float64) []float64 {
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	// Drop duplicates and a trailing +Inf (implicit).
	dst := out[:0]
	for _, v := range out {
		if math.IsInf(v, +1) {
			continue
		}
		if len(dst) > 0 && dst[len(dst)-1] == v {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// Counter returns the unlabeled counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec returns the counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, counterKind, nil, labels)}
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec returns the gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, gaugeKind, nil, labels)}
}

// Histogram returns the unlabeled histogram with the given bucket upper
// bounds (a +Inf bucket is always implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec returns the histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, histogramKind, buckets, labels)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// Counter is a monotonically increasing float64. The zero value is ready to
// use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down. The zero value is ready to
// use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases (or with negative v, decreases) the gauge.
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (cumulative "le" buckets
// in the exposition, per-bucket atomics internally).
type Histogram struct {
	upper   []float64 // sorted upper bounds; counts has one extra +Inf slot
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one observation. A value exactly on a bucket boundary is
// counted in that bucket (Prometheus "le" semantics).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns cumulative bucket counts aligned with Buckets() plus a
// final +Inf bucket.
func (h *Histogram) Snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Buckets returns the configured upper bounds (without the implicit +Inf).
func (h *Histogram) Buckets() []float64 { return append([]float64(nil), h.upper...) }

// DefBuckets are latency buckets (seconds) tuned for in-process service
// calls: sub-millisecond pre-calculated lookups up to multi-second WAN hops.
func DefBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n exponentially spaced buckets starting at start,
// multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
