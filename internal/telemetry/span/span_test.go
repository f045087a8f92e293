package span

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestNilSafety(t *testing.T) {
	// No recorder: Start yields a nil span; every method must be a no-op.
	ctx, s := Start(context.Background(), "op")
	if s != nil {
		t.Fatalf("Start without recorder returned %v, want nil", s)
	}
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 7)
	s.SetErr(errors.New("boom"))
	s.End()
	if cur := Current(ctx); cur != nil {
		t.Errorf("Current = %v, want nil", cur)
	}
	var r *Recorder
	if r.Recorded() != 0 || r.Snapshot() != nil || r.sampleTrace("x") {
		t.Error("nil recorder methods not inert")
	}
	if got := WithRecorder(context.Background(), nil); got != context.Background() {
		t.Error("WithRecorder(nil) should return ctx unchanged")
	}
}

func TestRequestIDContext(t *testing.T) {
	if RequestID(context.Background()) != "" {
		t.Error("empty context carries a request ID")
	}
	// The request ID rides with the tracing state, recorder or not.
	ctx := WithRequest(context.Background(), "abc", nil, 0)
	if RequestID(ctx) != "abc" {
		t.Errorf("RequestID = %q, want abc", RequestID(ctx))
	}
	if RequestID(WithRecorder(ctx, NewRecorder(Config{}))) != "abc" {
		t.Error("attaching a recorder dropped the request ID")
	}
	a, b := NewRequestID(), NewRequestID()
	if a == b || len(a) != 16 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Errorf("NewRequestID not unique/16-hex: %q %q", a, b)
	}
}

func TestParentChildLinkageAndRecording(t *testing.T) {
	clock := simclock.NewSim(time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC))
	rec := NewRecorder(Config{Capacity: 16, Clock: clock})
	ctx := WithRequest(context.Background(), "trace-1", rec, 0)

	ctx, root := Start(ctx, "root")
	if root == nil {
		t.Fatal("root span is nil")
	}
	if root.TraceID != "trace-1" || root.ParentID != 0 {
		t.Fatalf("root = %+v", root)
	}
	cctx, child := Start(ctx, "child")
	if child.ParentID != root.ID || child.TraceID != "trace-1" {
		t.Fatalf("child = %+v (root ID %d)", child, root.ID)
	}
	if Current(cctx) != child || Current(ctx) != root {
		t.Error("Current does not track the context's span")
	}
	clock.Advance(3 * time.Second)
	child.SetAttrInt("records", 42)
	child.SetAttr("records", "43") // SetAttr replaces
	child.SetErr(errors.New("partial"))
	child.End()
	clock.Advance(time.Second)
	root.End()

	spans := rec.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0] != root || spans[1] != child {
		t.Error("snapshot not in creation order")
	}
	if child.Duration != 3*time.Second || root.Duration != 4*time.Second {
		t.Errorf("durations: child %v root %v", child.Duration, root.Duration)
	}
	if len(child.Attrs) != 1 || child.Attrs[0].Value != "43" {
		t.Errorf("attrs = %v", child.Attrs)
	}
	if child.Err != "partial" {
		t.Errorf("err = %q", child.Err)
	}
	if rec.Recorded() != 2 {
		t.Errorf("Recorded = %d", rec.Recorded())
	}
}

func TestStartGeneratesAndInjectsTraceID(t *testing.T) {
	rec := NewRecorder(Config{})
	ctx, s := Start(WithRecorder(context.Background(), rec), "root")
	if s.TraceID == "" {
		t.Fatal("no trace ID generated")
	}
	// The generated ID must be visible as the context's request ID so
	// outgoing HTTP hops propagate it.
	if RequestID(ctx) != s.TraceID {
		t.Errorf("request ID %q != trace ID %q", RequestID(ctx), s.TraceID)
	}
}

func TestRemoteParent(t *testing.T) {
	rec := NewRecorder(Config{})
	ctx := WithRequest(context.Background(), "shared-trace", rec, 77)
	_, s := Start(ctx, "server")
	if s.ParentID != 77 || s.TraceID != "shared-trace" {
		t.Fatalf("span = %+v", s)
	}
	if ParseID(FormatID(77)) != 77 {
		t.Error("FormatID/ParseID round trip failed")
	}
	if ParseID("") != 0 || ParseID("zz") != 0 {
		t.Error("malformed parent IDs must parse to 0")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 4})
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 10; i++ {
		_, s := Start(ctx, "op")
		s.End()
	}
	spans := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.ID <= 6 {
			t.Errorf("old span %d survived the wrap", s.ID)
		}
	}
	if rec.Recorded() != 10 {
		t.Errorf("Recorded = %d, want 10", rec.Recorded())
	}
}

func TestDeterministicSampling(t *testing.T) {
	a := NewRecorder(Config{SampleEvery: 4})
	b := NewRecorder(Config{SampleEvery: 4})
	kept := 0
	for i := 0; i < 256; i++ {
		id := NewRequestID()
		av, bv := a.sampleTrace(id), b.sampleTrace(id)
		if av != bv {
			t.Fatalf("sampling disagrees across recorders for %q", id)
		}
		if av {
			kept++
		}
	}
	if kept == 0 || kept == 256 {
		t.Errorf("kept %d/256 traces with SampleEvery=4", kept)
	}
	// A sampled-out trace yields nil spans for the whole subtree.
	rec := NewRecorder(Config{SampleEvery: 1 << 30})
	ctx := WithRequest(context.Background(), "drop-me", rec, 0)
	if !rec.sampleTrace("drop-me") {
		ctx, root := Start(ctx, "root")
		_, child := Start(ctx, "child")
		if root != nil || child != nil {
			t.Error("sampled-out trace still produced spans")
		}
	}
}

func TestTracesAndSlowest(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	rec := NewRecorder(Config{Clock: clock})
	for i, id := range []string{"t1", "t2"} {
		ctx := WithRequest(context.Background(), id, rec, 0)
		ctx, root := Start(ctx, "root")
		_, child := Start(ctx, "pull")
		clock.Advance(time.Duration(i+1) * time.Second)
		child.End()
		root.End()
	}
	traces := rec.Traces(0)
	if len(traces) != 2 || traces[0].TraceID != "t2" || traces[1].TraceID != "t1" {
		t.Fatalf("traces = %+v", traces)
	}
	if len(traces[0].Spans) != 2 {
		t.Fatalf("trace t2 has %d spans", len(traces[0].Spans))
	}
	if got := rec.Traces(1); len(got) != 1 || got[0].TraceID != "t2" {
		t.Errorf("Traces(1) = %+v", got)
	}
	slow := rec.Slowest(2)
	if len(slow) != 2 || slow[0].Duration < slow[1].Duration {
		t.Errorf("Slowest order wrong: %v then %v", slow[0].Duration, slow[1].Duration)
	}

	tail := FormatTail(rec, 3)
	if !strings.Contains(tail, "[t2]") || !strings.Contains(tail, "root") {
		t.Errorf("FormatTail output:\n%s", tail)
	}
}

func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := WithRecorder(context.Background(), rec)
			ctx, root := Start(ctx, "root")
			for i := 0; i < 50; i++ {
				_, s := Start(ctx, "child")
				s.SetAttrInt("i", int64(i))
				s.End()
			}
			root.End()
		}()
	}
	wg.Wait()
	if rec.Recorded() != 8*51 {
		t.Errorf("Recorded = %d, want %d", rec.Recorded(), 8*51)
	}
	for _, s := range rec.Snapshot() {
		if s.Name != "root" && s.Name != "child" {
			t.Errorf("unexpected span %q", s.Name)
		}
	}
}
