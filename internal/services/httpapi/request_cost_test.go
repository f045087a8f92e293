package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/services/fcs"
	"repro/internal/services/irs"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
)

// recorderTransport serves a request with h in the calling goroutine, the
// way the scenario harness carries its peer pulls: an httptest.NewRecorder
// round trip, no socket, and the server side starting from its own context.
type recorderTransport struct{ h http.Handler }

func (t recorderTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req.WithContext(context.Background()))
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// inProcessServer is a one-user site ("alice") on a sim clock at t0, its
// services registered on opts.Registry (which must be set), served by
// NewServerWith with opts.
func inProcessServer(tb testing.TB, opts ServerOptions) *Server {
	tb.Helper()
	clock := simclock.NewSim(t0)
	pol, err := policy.FromShares(map[string]float64{"alice": 1})
	if err != nil {
		tb.Fatal(err)
	}
	reg := opts.Registry
	p := pds.New(pol, nil)
	u := uss.New(uss.Config{Site: "s", Contribute: true, Clock: clock, Metrics: reg})
	m := ums.New(ums.Config{Clock: clock, Metrics: reg},
		ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
			return u.GlobalTotals(now, d), nil
		}))
	f := fcs.New(fcs.Config{Clock: clock, Metrics: reg}, p, m)
	opts.Clock = clock
	return NewServerWith(p, u, m, f, irs.New(), opts)
}

// inProcessLookup is a one-user PriorityBatch, checked, against an
// inProcessServer recording spans into spans (nil: none), sent through
// recorderTransport.
func inProcessLookup(tb testing.TB, spans *span.Recorder) func() {
	tb.Helper()
	reg := telemetry.NewRegistry()
	srv := inProcessServer(tb, ServerOptions{Registry: reg, Spans: spans})
	c := NewClientWith("http://s", "s", ClientOptions{HTTP: &http.Client{Transport: recorderTransport{srv}}, Metrics: reg})
	users := []string{"alice"}
	lookup := func() {
		resp, err := c.PriorityBatch(users)
		if err != nil || len(resp.Entries) != 1 {
			tb.Fatalf("lookup: %d entries, %v", len(resp.Entries), err)
		}
	}
	lookup() // the first lookup builds the snapshot and resolves lazy series
	return lookup
}

// TestInProcessLookupAllocs pins what one in-process one-user lookup
// allocates, client, transport and server together, with and without a
// span recorder. A build with the race detector allocates more, so the
// count is checked only without it.
func TestInProcessLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, tc := range []struct {
		name  string
		spans *span.Recorder
		want  float64
	}{
		{"no recorder", nil, 47},
		{"with recorder", span.NewRecorder(span.Config{Capacity: 64}), 52},
	} {
		lookup := inProcessLookup(t, tc.spans)
		if got := testing.AllocsPerRun(200, lookup); got > tc.want {
			t.Errorf("%s: %g allocations per lookup, want at most %g", tc.name, got, tc.want)
		}
	}
}

// BenchmarkInProcessLookup is one one-user lookup through the scenario's
// kind of transport: the cost every in-process pull and call-out pays on
// top of its handler.
func BenchmarkInProcessLookup(b *testing.B) {
	for _, bc := range []struct {
		name  string
		spans *span.Recorder
	}{
		{"recorder=none", nil},
		{"recorder=on", span.NewRecorder(span.Config{Capacity: 64})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lookup := inProcessLookup(b, bc.spans)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookup()
			}
		})
	}
}
