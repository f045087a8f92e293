package httpapi

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// findSpan returns the first recorded span matching pred, or nil.
func findSpan(rec *span.Recorder, pred func(*span.Span) bool) *span.Span {
	for _, sp := range rec.Snapshot() {
		if pred(sp) {
			return sp
		}
	}
	return nil
}

func spanAttr(sp *span.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestSpanParentPropagationAcrossSites drives a two-hop exchange — client →
// site A /usage/exchange → site B /usage/records — and asserts the whole
// hop chain shares one trace: A's uss.pull span carries the injected request
// ID as its trace ID, and B's server span is parented on that pull span via
// the X-Aequus-Parent-Span header.
func TestSpanParentPropagationAcrossSites(t *testing.T) {
	clock := simclock.NewSim(t0)
	recA := span.NewRecorder(span.Config{Capacity: 128})
	recB := span.NewRecorder(span.Config{Capacity: 128})
	a := newObservedSite(t, "siteA", clock, map[string]float64{"u": 1},
		ServerOptions{Registry: telemetry.NewRegistry(), Spans: recA})
	b := newObservedSite(t, "siteB", clock, map[string]float64{"u": 1},
		ServerOptions{Registry: telemetry.NewRegistry(), Spans: recB})
	a.uss.AddPeer(NewClient(b.server.URL, "siteB"))

	const traceID = "trace-two-hop"
	req, err := http.NewRequest(http.MethodPost, a.server.URL+"/usage/exchange", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(span.RequestIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exchange = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(span.RequestIDHeader); got != traceID {
		t.Errorf("response request ID = %q, want %q", got, traceID)
	}

	// Site A: server span → uss.exchange → uss.pull, all on the trace the
	// client injected.
	pull := findSpan(recA, func(sp *span.Span) bool { return sp.Name == "uss.pull" })
	if pull == nil {
		t.Fatalf("site A recorded no uss.pull span; spans: %v", recA.Snapshot())
	}
	if pull.TraceID != traceID {
		t.Errorf("pull trace ID = %q, want %q", pull.TraceID, traceID)
	}
	if got := spanAttr(pull, "peer"); got != "siteB" {
		t.Errorf("pull peer attr = %q, want siteB", got)
	}
	srvA := findSpan(recA, func(sp *span.Span) bool {
		return sp.Name == "http.server" && spanAttr(sp, "route") == "/usage/exchange"
	})
	if srvA == nil {
		t.Fatal("site A recorded no http.server span for /usage/exchange")
	}
	if srvA.TraceID != traceID {
		t.Errorf("site A server span trace ID = %q, want %q", srvA.TraceID, traceID)
	}

	// Site B: its server span continues the same trace, parented on A's pull
	// span — the cross-site link the X-Aequus-Parent-Span header exists for.
	srvB := findSpan(recB, func(sp *span.Span) bool {
		return sp.Name == "http.server" && spanAttr(sp, "route") == "/usage/records"
	})
	if srvB == nil {
		t.Fatalf("site B recorded no http.server span; spans: %v", recB.Snapshot())
	}
	if srvB.TraceID != traceID {
		t.Errorf("site B server span trace ID = %q, want %q", srvB.TraceID, traceID)
	}
	if srvB.ParentID != pull.ID {
		t.Errorf("site B server span parent = %s, want A's pull span %s",
			span.FormatID(srvB.ParentID), span.FormatID(pull.ID))
	}
}

// TestDebugEndpoints exercises the introspection surface end to end through
// the typed client: summary, traces, slowest spans and the drift table.
func TestDebugEndpoints(t *testing.T) {
	clock := simclock.NewSim(t0)
	rec := span.NewRecorder(span.Config{Capacity: 128})
	s := newObservedSite(t, "s", clock, map[string]float64{"alice": 0.5, "bob": 0.5},
		ServerOptions{Registry: telemetry.NewRegistry(), Spans: rec})
	c := NewClient(s.server.URL, "s")
	ctx := context.Background()

	// Generate traffic: usage, a refresh (drift table), an exchange trace.
	s.uss.ReportJob("alice", clock.Now(), time.Hour, 1)
	if err := s.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := c.TriggerExchange(ctx); err != nil {
		t.Fatal(err)
	}

	sum, err := c.DebugSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SpansRecorded == 0 {
		t.Error("summary reports zero recorded spans")
	}
	if sum.Traces == 0 {
		t.Error("summary reports zero traces")
	}
	if sum.FCSComputedAt.IsZero() {
		t.Error("summary has no FCS snapshot timestamp")
	}

	traces, err := c.DebugTraces(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("no traces returned")
	}
	seen := map[string]bool{}
	for _, tr := range traces.Traces {
		for _, sp := range tr.Spans {
			seen[sp.Name] = true
			if sp.TraceID == "" || sp.SpanID == "" {
				t.Errorf("span %q missing IDs: %+v", sp.Name, sp)
			}
		}
	}
	if !seen["http.server"] {
		t.Errorf("no http.server span in traces; saw %v", seen)
	}

	slow, err := c.DebugSlowest(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Spans) == 0 || len(slow.Spans) > 3 {
		t.Errorf("slowest returned %d spans, want 1..3", len(slow.Spans))
	}

	drift, err := c.DebugDrift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if drift.ComputedAt.IsZero() {
		t.Error("drift table has no timestamp")
	}
	if len(drift.Entries) != 2 {
		t.Fatalf("drift entries = %d, want 2", len(drift.Entries))
	}
	// alice has all the usage against a 0.5 target; worst-first ordering
	// puts her on top with error 0.5.
	if drift.Entries[0].User != "alice" || drift.Entries[0].Error < 0.4 {
		t.Errorf("worst drift entry = %+v, want alice with error ~0.5", drift.Entries[0])
	}
	if drift.MaxError < drift.Entries[1].Error {
		t.Errorf("max error %v below second entry %v", drift.MaxError, drift.Entries[1].Error)
	}
}

// TestDebugEndpointsAbsentWithoutRecorder pins that the introspection
// surface is opt-in: without a recorder the routes simply don't exist.
func TestDebugEndpointsAbsentWithoutRecorder(t *testing.T) {
	s := newObservedSite(t, "s", simclock.NewSim(t0), map[string]float64{"a": 1},
		ServerOptions{Registry: telemetry.NewRegistry()})
	resp, err := http.Get(s.server.URL + "/debug/aequus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/aequus without recorder = %d, want 404", resp.StatusCode)
	}
}
