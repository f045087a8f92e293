package main

// Measurement plumbing: exact sorted-sample quantiles, the percentile rule,
// the per-run sample collector and the in-memory span log of traced runs.

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest order statistics (the median of an even count is the mean
// of the middle pair). No bucketing: every sample is kept and sorted.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailLadder is the set of percentiles a summary may report besides the
// median, lowest first.
var tailLadder = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it; with fewer than 40 samples none qualifies
// and the median is all a summary can honestly state.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if float64(n)*(1-tailLadder[i]) >= 10-1e-9 { // 100*(1-0.9) is 9.999999999999998
			return tailLadder[i], true
		}
	}
	return 0.5, false
}

// summary is one metric as reported: the median (or the single value of a
// scalar), the tail percentile the sample count supports, and that count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	// Better and Bound are set on end-to-end metrics only; -compare reads
	// them from the baseline file.
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

func summarize(samples []float64, unit string) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{Value: quantile(s, 0.5), Unit: unit, N: len(s)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.Tail = p, quantile(s, p)
	}
	return out
}

func scalar(v float64, unit string) summary { return summary{Value: v, Unit: unit, N: 1} }

// collector gathers samples by metric name. Stages record into it only
// while the run is in its timed part. Peer pulls of one exchange run on
// their own goroutines, hence the lock.
type collector struct {
	mu      sync.Mutex
	on      bool
	samples map[string][]float64
	counts  map[string]float64
}

func newCollector() *collector {
	return &collector{samples: map[string][]float64{}, counts: map[string]float64{}}
}

func (c *collector) add(name string, v float64) {
	c.mu.Lock()
	if c.on {
		c.samples[name] = append(c.samples[name], v)
	}
	c.mu.Unlock()
}

func (c *collector) count(name string, v float64) {
	c.mu.Lock()
	if c.on {
		c.counts[name] += v
	}
	c.mu.Unlock()
}

func (c *collector) setTimed(on bool) {
	c.mu.Lock()
	c.on = on
	c.mu.Unlock()
}

func (c *collector) max(name string) float64 {
	m := 0.0
	for _, v := range c.samples[name] {
		m = math.Max(m, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanRec is one recorded span. Start and End are nanoseconds since the
// tracer was created; Parent is the ID of the span that caused this one
// (0 for a round).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Site   int    `json:"site"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced pass.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent, round, site int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, Round: round, Site: site,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// selfTime is a span's duration minus the part of its interval its direct
// children cover. Children may overlap (the peer pulls of one exchange run
// concurrently), so their union is measured, not their sum.
func selfTime(parent spanRec, children []spanRec) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, edge), min(c.End, parent.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// selfTimes returns, for every span named parentName, its self time with
// respect to its children named childName.
func (t *tracer) selfTimes(parentName, childName string, fromRound int) []float64 {
	if t == nil {
		return nil
	}
	kids := map[int][]spanRec{}
	for _, s := range t.spans {
		if s.Name == childName {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == parentName && s.Round >= fromRound {
			out = append(out, ms(selfTime(s, kids[s.ID])))
		}
	}
	return out
}
