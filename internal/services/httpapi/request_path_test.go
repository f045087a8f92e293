package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fairshare"
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
	"repro/internal/wire"
)

// pathRecorder is one test server for every request of the client: it
// counts the calls of each route ("METHOD /path"), keeps the request ID of
// every one, answers a route's first fail[route].n calls with
// fail[route].status, and otherwise answers as an Aequus site would.
type pathRecorder struct {
	*httptest.Server
	tree *policy.Tree

	mu    sync.Mutex
	calls map[string]int
	ids   map[string][]string
	fail  map[string]induced
}

// induced answers the first n calls of a route with status.
type induced struct{ status, n int }

func newPathRecorder(t *testing.T) *pathRecorder {
	t.Helper()
	tree, err := policy.FromShares(map[string]float64{"alice": 0.6, "bob": 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rec := &pathRecorder{
		tree:  tree,
		calls: map[string]int{},
		ids:   map[string][]string{},
		fail:  map[string]induced{},
	}
	rec.Server = httptest.NewServer(rec)
	t.Cleanup(rec.Close)
	return rec
}

func (rec *pathRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.Method + " " + r.URL.Path
	rec.mu.Lock()
	rec.calls[route]++
	n := rec.calls[route]
	rec.ids[route] = append(rec.ids[route], r.Header.Get(span.RequestIDHeader))
	f := rec.fail[route]
	rec.mu.Unlock()
	if n <= f.n {
		wire.WriteError(w, f.status, "induced failure %d", n)
		return
	}
	switch route {
	case "GET /readyz":
		wire.WriteJSON(w, http.StatusServiceUnavailable, wire.ReadyResponse{
			Components: map[string]wire.ReadyComponent{"fcs": {Reason: "no pre-computation yet"}},
		})
	case "GET /policy":
		data, _ := policy.ToJSON(rec.tree)
		_, _ = w.Write(data)
	case "GET /policy/subtree":
		sub, _ := rec.tree.Lookup(r.URL.Query().Get("path"))
		wire.WriteJSON(w, http.StatusOK, sub)
	case "GET /metrics":
		fmt.Fprintln(w, "aequus_up 1")
	case "GET /fairshare":
		wire.WriteJSON(w, http.StatusOK, wire.FairshareTableResponse{Projection: "percental"})
	case "POST /policy", "POST /identity/resolve":
		wire.WriteJSON(w, http.StatusOK, wire.ResolveResponse{GridID: "grid-alice"})
	default:
		wire.WriteError(w, http.StatusNotFound, "no route %s", route)
	}
}

func (rec *pathRecorder) seen(route string) (calls int, ids []string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.calls[route], rec.ids[route]
}

// clientRequests reads aequus_client_requests_total for target and outcome
// off reg's exposition (0 when the series does not exist yet).
func clientRequests(t *testing.T, reg *telemetry.Registry, target, outcome string) float64 {
	t.Helper()
	prefix := fmt.Sprintf("aequus_client_requests_total{target=%q,outcome=%q} ", target, outcome)
	for _, l := range strings.Split(metricsText(t, reg), "\n") {
		if v, ok := strings.CutPrefix(l, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	return 0
}

// TestEveryCallTakesTheOnePath: the calls that used to build their own
// request — Ready, Policy, SetPolicy, MetricsText, an identity lookup and
// a PDS mount fetch — each send a request ID and are counted
// in aequus_client_requests_total, like every other call of the client.
func TestEveryCallTakesTheOnePath(t *testing.T) {
	rec := newPathRecorder(t)
	reg := telemetry.NewRegistry()
	c := NewClientWith(rec.URL, "peer", ClientOptions{Metrics: reg})
	ctx := context.Background()
	for _, tc := range []struct {
		name, route string
		reg         *telemetry.Registry
		target      string
		call        func() error
	}{
		{"Ready", "GET /readyz", reg, "peer", func() error {
			// A 503 is the verdict, not an error.
			r, err := c.Ready(ctx)
			if err == nil && r.Components["fcs"].Reason == "" {
				err = fmt.Errorf("report not decoded: %+v", r)
			}
			return err
		}},
		{"Policy", "GET /policy", reg, "peer", func() error {
			tree, err := c.Policy()
			if err == nil && tree.Root == nil {
				err = fmt.Errorf("no tree")
			}
			return err
		}},
		{"SetPolicy", "POST /policy", reg, "peer", func() error { return c.SetPolicy(rec.tree) }},
		{"MetricsText", "GET /metrics", reg, "peer", func() error {
			text, err := c.MetricsText(ctx)
			if err == nil && text != "aequus_up 1\n" {
				err = fmt.Errorf("text = %q", text)
			}
			return err
		}},
		{"Resolve", "POST /identity/resolve", reg, "peer", func() error {
			g, err := c.Resolve("site", "alice")
			if err == nil && g != "grid-alice" {
				err = fmt.Errorf("grid ID = %q", g)
			}
			return err
		}},
		{"PolicyFetcher", "GET /policy/subtree", telemetry.OrDefault(nil), rec.URL, func() error {
			n, err := PolicyFetcher(nil)(rec.URL + "|/alice")
			if err == nil && n.Root.Name != "alice" {
				err = fmt.Errorf("subtree = %+v", n.Root)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := clientRequests(t, tc.reg, tc.target, "ok")
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
			calls, ids := rec.seen(tc.route)
			if calls != 1 || ids[0] == "" {
				t.Errorf("%s: %d calls, request IDs %q; want 1 call with an ID", tc.route, calls, ids)
			}
			if got := clientRequests(t, tc.reg, tc.target, "ok") - before; got != 1 {
				t.Errorf("aequus_client_requests_total{target=%q,outcome=\"ok\"} moved by %g, want 1", tc.target, got)
			}
		})
	}
}

func TestClientRetriesIdempotentGetAfter502(t *testing.T) {
	rec := newPathRecorder(t)
	rec.fail["GET /fairshare"] = induced{http.StatusBadGateway, 1}
	reg := telemetry.NewRegistry()
	c := NewClientWith(rec.URL, "peer", ClientOptions{Retry: fastRetry(3), Metrics: reg})
	if _, err := c.Table(); err != nil {
		t.Fatalf("Table after one 502: %v", err)
	}
	// The retry is the same call: one request ID on both attempts.
	if calls, ids := rec.seen("GET /fairshare"); calls != 2 || ids[0] == "" || ids[1] != ids[0] {
		t.Errorf("server saw %d calls with request IDs %q, want 2 (502 + success) under one ID", calls, ids)
	}
	text := metricsText(t, reg)
	for _, want := range []string{
		`aequus_retry_attempts_total{target="peer"} 1`,
		`aequus_client_requests_total{target="peer",outcome="error"} 1`,
		`aequus_client_requests_total{target="peer",outcome="ok"} 1`,
	} {
		if !containsLine(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestClientNeverRetriesSetPolicy(t *testing.T) {
	rec := newPathRecorder(t)
	rec.fail["POST /policy"] = induced{http.StatusInternalServerError, 100}
	c := NewClientWith(rec.URL, "peer", ClientOptions{Retry: fastRetry(5), Metrics: telemetry.NewRegistry()})
	if err := c.SetPolicy(rec.tree); err == nil {
		t.Fatal("failing SetPolicy returned no error")
	}
	if calls, _ := rec.seen("POST /policy"); calls != 1 {
		t.Errorf("server saw %d policy POSTs, want exactly 1", calls)
	}
}

// TestFairshareRefreshRouteSeesNewUsage: POST /fairshare/refresh publishes
// the usage reported since the last pass even while the UMS's cached totals
// are within their TTL, as core.Site.Refresh does.
func TestFairshareRefreshRouteSeesNewUsage(t *testing.T) {
	clock := simclock.NewSim(t0)
	pol, err := policy.FromShares(map[string]float64{"alice": 0.5, "bob": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p := pds.New(pol, nil)
	u := uss.New(uss.Config{Site: "s", BinWidth: time.Minute, Contribute: true, Clock: clock})
	m := ums.New(ums.Config{Clock: clock, CacheTTL: time.Minute},
		ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
			return u.GlobalTotals(now, d), nil
		}))
	f := fcs.New(fcs.Config{Clock: clock, CacheTTL: time.Minute, Fairshare: fairshare.DefaultConfig()}, p, m)
	srv := httptest.NewServer(NewServer(p, u, m, f, irs.New()))
	defer srv.Close()
	c := NewClient(srv.URL, "s")

	if err := c.ReportJobBatch([]wire.UsageReport{{User: "bob", Start: t0, DurationSeconds: 3600, Procs: 1}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	if err := c.post(context.Background(), true, "/fairshare/refresh", nil, nil); err != nil {
		t.Fatal(err)
	}
	before, err := c.Priority("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReportJobBatch([]wire.UsageReport{{User: "alice", Start: clock.Now().Add(-time.Hour), DurationSeconds: 3600, Procs: 8}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	if err := c.post(context.Background(), true, "/fairshare/refresh", nil, nil); err != nil {
		t.Fatal(err)
	}
	after, err := c.Priority("alice")
	if err != nil {
		t.Fatal(err)
	}
	if after.Value >= before.Value {
		t.Errorf("alice's priority %.4f → %.4f after 8 core-hours and a refresh; want it to fall", before.Value, after.Value)
	}
}
