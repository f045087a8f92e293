package span

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// DefaultCapacity is the ring size used when Config.Capacity is zero —
// enough for several exchange/refresh rounds of a busy site at a few
// hundred bytes per span.
const DefaultCapacity = 2048

// Config parameterizes a Recorder.
type Config struct {
	// Capacity is the ring size in spans (rounded up to a power of two;
	// default DefaultCapacity). Older spans are overwritten.
	Capacity int
	// SampleEvery records one in N traces (<= 1 records every trace). The
	// decision is a deterministic hash of the trace ID, so all sites of a
	// federation keep or drop the same traces.
	SampleEvery int
	// Clock times spans (default wall clock; the testbed passes its sim
	// clock so traces stay deterministic).
	Clock simclock.Clock
}

// Recorder stores ended spans in a fixed-size lock-free ring: recording is
// one atomic increment plus one atomic pointer store, safe for any number
// of concurrent writers, and never blocks or allocates on the recording
// path. Readers (the introspection surface) snapshot the ring without
// stopping writers.
type Recorder struct {
	slots []atomic.Pointer[Span]
	mask  uint64

	next     atomic.Uint64 // ring write cursor
	ids      atomic.Uint64 // span ID allocator (IDs are creation-ordered)
	recorded atomic.Uint64 // total spans ever recorded

	sampleEvery uint32
	clock       simclock.Clock
}

// NewRecorder creates a recorder.
func NewRecorder(cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	sample := cfg.SampleEvery
	if sample < 1 {
		sample = 1
	}
	return &Recorder{
		slots:       make([]atomic.Pointer[Span], size),
		mask:        uint64(size - 1),
		sampleEvery: uint32(sample),
		clock:       clock,
	}
}

func (r *Recorder) now() time.Time { return r.clock.Now() }

func (r *Recorder) nextID() uint64 { return r.ids.Add(1) }

// sampleTrace decides whether a trace is recorded. Nil-safe (false).
func (r *Recorder) sampleTrace(traceID string) bool {
	if r == nil {
		return false
	}
	if r.sampleEvery <= 1 {
		return true
	}
	return traceHash(traceID)%r.sampleEvery == 0
}

// record publishes an ended span into the ring.
func (r *Recorder) record(s *Span) {
	idx := r.next.Add(1) - 1
	r.slots[idx&r.mask].Store(s)
	r.recorded.Add(1)
}

// Recorded returns the total number of spans recorded (including those the
// ring has since overwritten).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.recorded.Load()
}

// Snapshot returns the spans currently retained by the ring, ordered by
// creation (span ID). The spans are shared with the recorder and must be
// treated as read-only.
func (r *Recorder) Snapshot() []*Span {
	if r == nil {
		return nil
	}
	out := make([]*Span, 0, len(r.slots))
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Trace is one trace's retained spans, in creation order.
type Trace struct {
	TraceID string
	Spans   []*Span
}

// Traces groups the retained spans by trace ID, most recent trace first,
// returning at most limit traces (<= 0 means all).
func (r *Recorder) Traces(limit int) []Trace {
	spans := r.Snapshot()
	byID := map[string]*Trace{}
	order := []*Trace{}
	for _, s := range spans {
		t := byID[s.TraceID]
		if t == nil {
			t = &Trace{TraceID: s.TraceID}
			byID[s.TraceID] = t
			order = append(order, t)
		}
		t.Spans = append(t.Spans, s)
	}
	// Most recently started trace first: order was built in span-ID order,
	// so the last trace to appear holds the newest spans.
	out := make([]Trace, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		out = append(out, *order[i])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Slowest returns the n retained spans with the longest durations,
// slowest first.
func (r *Recorder) Slowest(n int) []*Span {
	spans := r.Snapshot()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Duration > spans[j].Duration })
	if n > 0 && len(spans) > n {
		spans = spans[:n]
	}
	return spans
}

// formatSpan renders one span as a single line: name, duration, error and
// attributes.
func formatSpan(s *Span) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", s.Name, s.Duration)
	for _, a := range s.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%q", s.Err)
	}
	return b.String()
}

// FormatTail renders the most recent n retained spans (creation order, one
// line each, prefixed with the span's start time and trace ID) — the
// timeline a failing scenario run dumps next to its violations.
func FormatTail(r *Recorder, n int) string {
	spans := r.Snapshot()
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace tail (last %d spans):\n", len(spans))
	for _, s := range spans {
		fmt.Fprintf(&b, "  %s [%s] %s\n", s.Start.Format(time.RFC3339), s.TraceID, formatSpan(s))
	}
	return b.String()
}
