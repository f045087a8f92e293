package scenario

import (
	"testing"

	"repro/internal/telemetry/span"
)

// TestScenarioTracesExchange runs one generated multi-site scenario and
// asserts the span recorder captured complete exchange traces: a
// "uss.exchange" root whose per-peer "uss.pull" children are linked by
// parent ID and carry the peer/breaker/retry attributes, and under each pull
// that reached its peer the serving site's "http.server" span, in the same
// trace — the shape the /debug/aequus surface and failure dumps rely on.
func TestScenarioTracesExchange(t *testing.T) {
	res, err := Run(Generate(3), Options{})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if res.Spans == nil || res.Spans.Recorded() == 0 {
		t.Fatal("scenario run recorded no spans")
	}

	attr := func(sp *span.Span, key string) (string, bool) {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value, true
			}
		}
		return "", false
	}

	// The oldest retained trace may have lost spans to the ring's wrap.
	traces := res.Spans.Traces(0)
	if len(traces) > 0 {
		traces = traces[:len(traces)-1]
	}
	pulls, served := 0, 0
	for _, tr := range traces {
		var root *span.Span
		for _, sp := range tr.Spans {
			if sp.Name == "uss.exchange" {
				root = sp
				break
			}
		}
		if root == nil {
			continue
		}
		if _, ok := attr(root, "site"); !ok {
			t.Errorf("exchange root %s has no site attr: %+v", span.FormatID(root.ID), root.Attrs)
		}
		for _, sp := range tr.Spans {
			if sp.Name != "uss.pull" || sp.ParentID != root.ID {
				continue
			}
			pulls++
			if sp.TraceID != root.TraceID {
				t.Errorf("pull span crossed traces: %s vs %s", sp.TraceID, root.TraceID)
			}
			if _, ok := attr(sp, "peer"); !ok {
				t.Errorf("pull span missing peer attr: %+v", sp.Attrs)
			}
			if v, ok := attr(sp, "breaker"); !ok || v == "" {
				t.Errorf("pull span missing breaker attr: %+v", sp.Attrs)
			}
			if sp.Err != "" {
				continue // an injected fault: the request never reached the peer
			}
			served++
			linked := false
			for _, c := range tr.Spans {
				if c.Name == "http.server" && c.ParentID == sp.ID {
					route, _ := attr(c, "route")
					linked = route == "/usage/records"
				}
			}
			if !linked {
				t.Errorf("pull span %s (peer %v) has no /usage/records http.server child in trace %s",
					span.FormatID(sp.ID), sp.Attrs, tr.TraceID)
			}
		}
	}
	if served == 0 {
		t.Fatalf("no complete uss.exchange trace with served uss.pull children among %d retained spans",
			len(res.Spans.Snapshot()))
	}
	t.Logf("%d pulls checked, %d of them served by their peer", pulls, served)
}
