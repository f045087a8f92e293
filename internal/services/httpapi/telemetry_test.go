package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fairshare"
	"repro/internal/libaequus"
	"repro/internal/policy"
	"repro/internal/services/fcs"
	"repro/internal/services/irs"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// syncBuffer is a goroutine-safe log sink for capturing access logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newObservedSite is newSite with explicit observability wiring: the
// services and the server share opts.Registry (or the default), and the
// server takes opts verbatim.
func newObservedSite(t *testing.T, name string, clock *simclock.Sim, shares map[string]float64, opts ServerOptions) *site {
	t.Helper()
	pol, err := policy.FromShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.OrDefault(opts.Registry)
	p := pds.New(pol, PolicyFetcher(nil))
	u := uss.New(uss.Config{Site: name, BinWidth: time.Minute, Contribute: true, Clock: clock, Metrics: reg})
	m := ums.New(ums.Config{Clock: clock, CacheTTL: 0, Metrics: reg},
		ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
			return u.GlobalTotals(now, d), nil
		}))
	f := fcs.New(fcs.Config{Clock: clock, CacheTTL: 0, Fairshare: fairshare.DefaultConfig(), Metrics: reg}, p, m)
	i := irs.New()
	srv := httptest.NewServer(NewServerWith(p, u, m, f, i, opts))
	t.Cleanup(srv.Close)
	return &site{name: name, clock: clock, pds: p, uss: u, ums: m, fcs: f, irs: i, server: srv}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := simclock.NewSim(t0)
	s := newObservedSite(t, "s", clock, map[string]float64{"alice": 0.5, "bob": 0.5},
		ServerOptions{Registry: reg})

	ca := NewClient(s.server.URL, "s")
	if err := ca.StoreMapping("alice", "s", "local1"); err != nil {
		t.Fatal(err)
	}
	// Two identical lookups: the first misses both libaequus caches, the
	// second hits both.
	lib := libaequus.New(libaequus.Config{Site: "s", CacheTTL: time.Hour, Clock: clock, Metrics: reg}, ca, ca, ca)
	for i := 0; i < 2; i++ {
		if _, err := lib.PriorityForLocalUser("local1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ca.TriggerExchange(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(s.server.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, telemetry.ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		`aequus_http_request_duration_seconds_bucket{route="/fairshare"`,
		`aequus_http_request_duration_seconds_bucket{route="/usage/exchange"`,
		`aequus_http_request_duration_seconds_bucket{route="/identity/resolve"`,
		`aequus_lib_cache_hits_total{cache="fairshare"} 1`,
		`aequus_lib_cache_misses_total{cache="fairshare"} 1`,
		`aequus_lib_cache_hits_total{cache="identity"} 1`,
		`aequus_lib_cache_misses_total{cache="identity"} 1`,
		`aequus_fcs_recalcs_total`,
		`aequus_ums_recomputes_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every sample line must be "name{labels} value" with a parseable value —
	// the shape any Prometheus scraper accepts.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

func TestRequestIDPropagationAcrossSites(t *testing.T) {
	clock := simclock.NewSim(t0)
	var logB syncBuffer
	logger, err := telemetry.NewLogger(&logB, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	a := newObservedSite(t, "siteA", clock, map[string]float64{"u": 1},
		ServerOptions{Registry: telemetry.NewRegistry()})
	b := newObservedSite(t, "siteB", clock, map[string]float64{"u": 1},
		ServerOptions{Registry: telemetry.NewRegistry(), Log: logger})

	// A pulls usage from B; a traced exchange request to A must carry its
	// request ID through A's handler into the pull that B serves.
	a.uss.AddPeer(NewClient(b.server.URL, "siteB"))

	const traceID = "trace-123"
	req, err := http.NewRequest(http.MethodPost, a.server.URL+"/usage/exchange", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.RequestIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exchange = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.RequestIDHeader); got != traceID {
		t.Errorf("originating response ID = %q, want %q", got, traceID)
	}

	// Site B's instrumented /usage/records handler must have logged the same
	// request ID that entered at site A.
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logB.String()), "\n") {
		var rec map[string]interface{}
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["route"] == "/usage/records" && rec["request_id"] == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("peer site never saw request ID %q; site B log:\n%s", traceID, logB.String())
	}
}

func TestReadyz(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newObservedSite(t, "s", clock, map[string]float64{"a": 1},
		ServerOptions{Registry: telemetry.NewRegistry(), Clock: clock})
	c := NewClient(s.server.URL, "s")

	status := func() int {
		t.Helper()
		resp, err := http.Get(s.server.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// No pre-computation has run: FCS and UMS are not ready.
	if code := status(); code != http.StatusServiceUnavailable {
		t.Errorf("cold /readyz = %d, want 503", code)
	}
	r, err := c.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Ready {
		t.Error("cold site reports ready")
	}
	if got := r.Components["fcs"].Reason; got != "no pre-computation yet" {
		t.Errorf("fcs reason = %q", got)
	}
	for _, svc := range []string{"pds", "uss", "irs"} {
		if !r.Components[svc].Ready {
			t.Errorf("stateless service %s not ready", svc)
		}
	}

	// A refresh computes both trees (FCS pulls through UMS).
	if err := s.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}
	if code := status(); code != http.StatusOK {
		t.Errorf("fresh /readyz = %d, want 200", code)
	}
	r, err = c.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ready || !r.Components["fcs"].Ready || !r.Components["ums"].Ready {
		t.Errorf("fresh readiness = %+v", r)
	}

	// Sim time outruns the staleness threshold (default 5 minutes).
	clock.Advance(10 * time.Minute)
	if code := status(); code != http.StatusServiceUnavailable {
		t.Errorf("stale /readyz = %d, want 503", code)
	}
	r, err = c.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Ready {
		t.Error("stale site reports ready")
	}
	fc := r.Components["fcs"]
	if fc.Reason != "pre-computation stale" || fc.AgeSeconds != 600 {
		t.Errorf("stale fcs component = %+v", fc)
	}
}

func TestClientReusesKeepAliveConnections(t *testing.T) {
	clock := simclock.NewSim(t0)
	pol, err := policy.FromShares(map[string]float64{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	p := pds.New(pol, PolicyFetcher(nil))
	u := uss.New(uss.Config{Site: "s", BinWidth: time.Minute, Contribute: true, Clock: clock})
	m := ums.New(ums.Config{Clock: clock},
		ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
			return u.GlobalTotals(now, d), nil
		}))
	f := fcs.New(fcs.Config{Clock: clock, Fairshare: fairshare.DefaultConfig()}, p, m)
	srv := httptest.NewUnstartedServer(NewServerWith(p, u, m, f, irs.New(),
		ServerOptions{Registry: telemetry.NewRegistry(), Clock: clock}))
	var mu sync.Mutex
	conns := 0
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	// Give the client its own transport so other tests' pooled connections
	// can't interfere with the count.
	c := NewClient(srv.URL, "s")
	c.HTTP = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}

	if _, err := c.Table(); err != nil {
		t.Fatal(err)
	}
	// An error response (404 with a JSON error envelope) must also leave the
	// connection reusable.
	if _, err := c.Priority("ghost"); err == nil {
		t.Fatal("unknown user accepted")
	}
	if _, err := c.Table(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ready(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MetricsText(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A binary answer, and a 415 to a body the route does not take.
	if _, err := c.PriorityBatch([]string{"a", "ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := c.post(context.Background(), "/fairshare/batch", map[string][]string{"users": {"a"}}, nil); err == nil {
		t.Fatal("a JSON batch request accepted")
	}

	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("server saw %d connections, want 1 (bodies not drained?)", conns)
	}
}
