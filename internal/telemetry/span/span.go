// Package span provides lightweight, dependency-free distributed tracing
// for the Aequus stack: context-propagated spans whose trace ID is the
// X-Aequus-Request-ID correlation ID, recorded into a lock-free ring buffer
// (see Recorder) with deterministic trace-level sampling. It owns a
// request's tracing state on the context, the request ID included, and the
// two headers that carry it across a site hop.
//
// The design goals mirror the rest of the telemetry layer: zero cost when
// disabled (a nil *Recorder yields nil *Span values, and every Span method
// is nil-safe, so instrumented code needs no conditionals and the serving
// hot paths stay allocation-free), bounded memory when enabled, and sim-
// clock support so the deterministic testbed and scenario harness can trace
// runs without breaking replayability.
//
// A trace crosses site boundaries the same way request IDs do: the trace ID
// travels in X-Aequus-Request-ID and the caller's span ID in
// X-Aequus-Parent-Span, so one inter-site exchange round renders as a
// single tree — the USS exchange root, its per-peer pulls, and the remote
// sites' handler spans.
package span

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"hash/fnv"
	"strconv"
	"time"
)

// RequestIDHeader is the HTTP header that carries the cross-site request
// correlation ID, which is also the trace ID. A priority query entering a
// site through libaequus keeps one ID through FCS/UMS/IRS handling and
// across site-to-site /usage/exchange hops, so a single submission burst
// can be traced through the whole federation's logs and spans.
const RequestIDHeader = "X-Aequus-Request-ID"

// ParentHeader is the HTTP header carrying the calling span's ID across a
// site hop, complementing RequestIDHeader (which carries the trace ID). The
// value is the span ID in lowercase hexadecimal.
const ParentHeader = "X-Aequus-Parent-Span"

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. Fields are exported for the
// introspection surface; they must be treated as read-only once the span
// has been ended (the recorder hands the same object to readers).
//
// The owning goroutine mutates a span only between Start and End; all
// methods are safe on a nil receiver, which is how disabled tracing stays
// free of conditionals at call sites.
type Span struct {
	// TraceID groups the spans of one logical operation; it equals the
	// request ID propagated in X-Aequus-Request-ID.
	TraceID string
	// ID identifies this span within its recorder.
	ID uint64
	// ParentID is the enclosing span's ID (0 for a root span). The parent
	// may live on another site (propagated via ParentHeader).
	ParentID uint64
	// Name labels the operation, e.g. "uss.exchange" or "fcs.refresh".
	Name string
	// Start is the span's start on the recorder's clock.
	Start time.Time
	// Duration is set by End on the recorder's clock (zero under a
	// simulated clock when no simulated time elapsed).
	Duration time.Duration
	// Attrs are the span's annotations, in insertion order.
	Attrs []Attr
	// Err is the operation's error message ("" when it succeeded).
	Err string

	rec *Recorder
}

// ctxData is the per-context tracing state: the request ID (the trace ID),
// the recorder, the current span (for child linkage and Current), and the
// trace's sampling decision.
type ctxData struct {
	rec      *Recorder
	span     *Span
	parentID uint64
	traceID  string
	sampled  bool
	decided  bool
}

type ctxKey struct{}

func dataFrom(ctx context.Context) ctxData {
	if ctx == nil {
		return ctxData{}
	}
	d, _ := ctx.Value(ctxKey{}).(ctxData)
	return d
}

// WithRecorder returns a context that records spans into rec. A nil rec
// returns ctx unchanged, so service configs can plumb an optional recorder
// unconditionally.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	d := dataFrom(ctx)
	if d.rec == rec {
		return ctx
	}
	d.rec = rec
	return context.WithValue(ctx, ctxKey{}, d)
}

// EnsureRecorder attaches rec only when ctx does not already carry a
// recorder — how a service's own recorder backs spans for calls that did
// not enter through an instrumented HTTP handler, without overriding the
// caller's tracing.
func EnsureRecorder(ctx context.Context, rec *Recorder) context.Context {
	if dataFrom(ctx).rec != nil {
		return ctx
	}
	return WithRecorder(ctx, rec)
}

// WithRequest returns ctx carrying one served request's tracing state as
// one value: its request ID, which spans started under it take as their
// trace ID and outgoing calls forward; the recorder (nil: none); and the ID
// of the calling site's span (0: none), which becomes the parent of the
// first span started under it. Any tracing state ctx already carried is
// replaced.
func WithRequest(ctx context.Context, requestID string, rec *Recorder, parentID uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxData{rec: rec, traceID: requestID, parentID: parentID})
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string { return dataFrom(ctx).traceID }

// NewRequestID generates a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	var h [16]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never returns an error
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// Start begins a span named name under ctx's recorder and current span,
// returning a derived context (carrying the new span for child linkage) and
// the span itself. Without a recorder — or when the trace is sampled out —
// the span is nil, and every method on it is a no-op.
//
// The trace ID is ctx's request ID; a context without one gets a freshly
// generated ID, which the returned context carries as its request ID so
// outgoing HTTP hops propagate it.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := dataFrom(ctx)
	if d.rec == nil {
		return ctx, nil
	}
	if !d.decided {
		if d.traceID == "" {
			d.traceID = NewRequestID()
		}
		d.sampled = d.rec.sampleTrace(d.traceID)
		d.decided = true
	}
	if !d.sampled {
		// Remember the decision so descendants skip the hash.
		return context.WithValue(ctx, ctxKey{}, d), nil
	}
	s := &Span{
		TraceID:  d.traceID,
		ID:       d.rec.nextID(),
		ParentID: d.parentID,
		Name:     name,
		Start:    d.rec.now(),
		rec:      d.rec,
	}
	d.span = s
	d.parentID = s.ID
	return context.WithValue(ctx, ctxKey{}, d), s
}

// Current returns the span ctx is executing under, or nil. Deeper layers
// (e.g. the HTTP client's retry loop) use it to annotate the enclosing
// operation's span without threading it explicitly.
func Current(ctx context.Context) *Span { return dataFrom(ctx).span }

// SetAttr sets (replacing any previous value for key) a string annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt sets an integer annotation.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetErr records the operation's error (a nil err is ignored).
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// End finishes the span — fixing its duration on the recorder's clock — and
// publishes it to the recorder's ring. A span must be ended exactly once
// and not mutated afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = s.rec.now().Sub(s.Start)
	s.rec.record(s)
}

// FormatID renders a span ID for the ParentHeader (lowercase hex).
func FormatID(id uint64) string { return strconv.FormatUint(id, 16) }

// ParseID parses a ParentHeader value; malformed or empty input yields 0
// (no parent).
func ParseID(s string) uint64 {
	if s == "" {
		return 0
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// traceHash is the deterministic sampling hash: the same trace ID hashes
// identically on every site, so a sampled trace is sampled everywhere and
// cross-site trees arrive complete.
func traceHash(traceID string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(traceID))
	return h.Sum32()
}
