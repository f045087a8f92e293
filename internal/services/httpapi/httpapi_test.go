package httpapi

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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
	"repro/internal/usage"
	"repro/internal/wire"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

// site bundles one site's full stack plus its test server.
type site struct {
	name   string
	clock  *simclock.Sim
	pds    *pds.Service
	uss    *uss.Service
	ums    *ums.Service
	fcs    *fcs.Service
	irs    *irs.Service
	server *httptest.Server
}

func newSite(t *testing.T, name string, clock *simclock.Sim, shares map[string]float64) *site {
	t.Helper()
	pol, err := policy.FromShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	return newPolicySite(t, name, clock, pol)
}

func newPolicySite(t testing.TB, name string, clock *simclock.Sim, pol *policy.Tree) *site {
	t.Helper()
	p := pds.New(pol, PolicyFetcher(nil))
	u := uss.New(uss.Config{Site: name, BinWidth: time.Minute, Contribute: true, Clock: clock})
	m := ums.New(ums.Config{Clock: clock, CacheTTL: 0},
		ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
			return u.GlobalTotals(now, d), nil
		}))
	f := fcs.New(fcs.Config{Clock: clock, CacheTTL: 0, Fairshare: fairshare.DefaultConfig()}, p, m)
	i := irs.New()
	srv := httptest.NewServer(NewServer(p, u, m, f, i))
	t.Cleanup(srv.Close)
	return &site{name: name, clock: clock, pds: p, uss: u, ums: m, fcs: f, irs: i, server: srv}
}

func TestFullStackOverHTTP(t *testing.T) {
	clock := simclock.NewSim(t0)
	shares := map[string]float64{"alice": 0.5, "bob": 0.5}
	a := newSite(t, "siteA", clock, shares)
	b := newSite(t, "siteB", clock, shares)

	// Wire USS exchange over HTTP: each site pulls the other's records.
	a.uss.AddPeer(NewClient(b.server.URL, "siteB"))
	b.uss.AddPeer(NewClient(a.server.URL, "siteA"))

	// Identity mappings over HTTP.
	ca := NewClient(a.server.URL, "siteA")
	if err := ca.StoreMapping("alice", "siteA", "grid001"); err != nil {
		t.Fatal(err)
	}
	if err := ca.StoreMapping("bob", "siteA", "grid002"); err != nil {
		t.Fatal(err)
	}

	// libaequus talking to site A entirely over HTTP.
	lib := libaequus.New(libaequus.Config{Site: "siteA", CacheTTL: 0, Clock: clock}, ca, ca, ca)

	// bob burns an hour of compute on site B; the usage flows B → A via
	// exchange and shifts priorities on A.
	cb := NewClient(b.server.URL, "siteB")
	if err := cb.ReportJobErr("bob", t0, time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	if err := ca.TriggerExchange(context.Background()); err != nil {
		t.Fatal(err)
	}

	pAlice, err := lib.PriorityForLocalUser("grid001")
	if err != nil {
		t.Fatal(err)
	}
	pBob, err := lib.PriorityForLocalUser("grid002")
	if err != nil {
		t.Fatal(err)
	}
	if pAlice <= pBob {
		t.Errorf("alice (idle) = %g should outrank bob (used remotely) = %g", pAlice, pBob)
	}
}

func TestJobCompletionRoundTrip(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"alice": 1})
	c := NewClient(s.server.URL, "s")
	if err := c.StoreMapping("alice", "s", "local1"); err != nil {
		t.Fatal(err)
	}
	lib := libaequus.New(libaequus.Config{Site: "s", CacheTTL: 0, Clock: clock}, c, c, c)
	if err := lib.JobComplete("local1", t0, 30*time.Minute, 2); err != nil {
		t.Fatal(err)
	}
	got := s.uss.LocalTotals(t0.Add(time.Hour), usage.None{})
	if math.Abs(got["alice"]-3600) > 1e-6 {
		t.Errorf("usage after completion = %v", got)
	}
}

func TestFairshareTableEndpoint(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 0.7, "b": 0.3})
	c := NewClient(s.server.URL, "s")
	tab, err := c.Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != 2 || tab.Projection != "percental" {
		t.Errorf("table = %+v", tab)
	}
}

func TestFairshareBatchEndpoint(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	c := NewClient(s.server.URL, "s")

	resp, err := c.PriorityBatch([]string{"a", "b", "c", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 3 {
		t.Fatalf("entries = %+v", resp.Entries)
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "ghost" {
		t.Errorf("missing = %v, want [ghost]", resp.Missing)
	}
	if resp.Projection != "percental" || resp.ComputedAt.IsZero() {
		t.Errorf("batch metadata = %q at %v", resp.Projection, resp.ComputedAt)
	}
	// One snapshot serves the whole batch: every entry carries the batch's
	// ComputedAt, and each value matches the single-user endpoint.
	for _, e := range resp.Entries {
		if e.ComputedAt != resp.ComputedAt {
			t.Errorf("entry %s from a different snapshot: %v vs %v", e.User, e.ComputedAt, resp.ComputedAt)
		}
		single, err := c.Priority(e.User)
		if err != nil {
			t.Fatal(err)
		}
		if single.Value != e.Value {
			t.Errorf("%s: batch value %g, single value %g", e.User, e.Value, single.Value)
		}
	}

	// libaequus over HTTP takes the batch path transparently: local "la"
	// maps to grid user "a", local "nobody" fails resolution and is skipped.
	if _, ok := interface{}(c).(libaequus.BatchFairshareSource); !ok {
		t.Fatal("httpapi.Client does not implement BatchFairshareSource")
	}
	if err := c.StoreMapping("a", "s", "la"); err != nil {
		t.Fatal(err)
	}
	lib := libaequus.New(libaequus.Config{Site: "s", CacheTTL: time.Minute, Clock: clock}, c, c, c)
	got, err := lib.PrioritiesForLocalUsers([]string{"la", "nobody"})
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := c.Priority("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["la"] != wantA.Value {
		t.Errorf("priorities = %v, want la=%g only", got, wantA.Value)
	}

	// Method discipline: GET is rejected.
	httpResp, err := http.Get(s.server.URL + "/fairshare/batch")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /fairshare/batch = %d, want 405", httpResp.StatusCode)
	}
}

func TestUnknownUserIs404(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 1})
	c := NewClient(s.server.URL, "s")
	_, err := c.Priority("ghost")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("err = %v", err)
	}
}

func TestPolicyEndpoints(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 1})
	c := NewClient(s.server.URL, "s")

	got, err := c.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Lookup("/a"); err != nil {
		t.Error("policy fetch lost /a")
	}

	// Replace the policy remotely.
	p2, _ := policy.FromShares(map[string]float64{"x": 0.4, "y": 0.6})
	if err := c.SetPolicy(p2); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Policy()
	if _, err := got.Lookup("/y"); err != nil {
		t.Error("policy replace did not apply")
	}

	// Subtree fetch.
	sub, err := c.Subtree("/x")
	if err != nil || sub.Name != "x" {
		t.Errorf("subtree = %+v, %v", sub, err)
	}
	if _, err := c.Subtree("/nope"); err == nil {
		t.Error("missing subtree accepted")
	}
}

func TestPDSMountOverHTTP(t *testing.T) {
	clock := simclock.NewSim(t0)
	national := newSite(t, "national", clock, map[string]float64{"va": 0.25, "vb": 0.75})
	local := newSite(t, "local", clock, map[string]float64{"own": 1})

	c := NewClient(local.server.URL, "local")
	origin := national.server.URL + "|/"
	if err := c.Mount("", "grid", 3, origin); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Policy()
	n, err := got.Lookup("/grid/vb")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Share-0.75) > 1e-12 {
		t.Errorf("mounted share = %g", n.Share)
	}

	// National policy changes; refresh propagates it.
	p2, _ := policy.FromShares(map[string]float64{"vc": 1})
	if err := NewClient(national.server.URL, "national").SetPolicy(p2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(local.server.URL+"/policy/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeResponse(resp, nil); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Policy()
	if _, err := got.Lookup("/grid/vc"); err != nil {
		t.Error("refresh did not propagate the national policy change")
	}
}

func TestIRSCustomEndpointProtocol(t *testing.T) {
	// A site-provided name-resolution endpoint speaking the minimalist JSON
	// protocol.
	endpoint := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.ResolveRequest
		if err := wire.ReadJSON(r.Body, &req); err != nil {
			wire.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if !strings.HasPrefix(req.LocalUser, "gx") {
			wire.WriteError(w, http.StatusNotFound, "not a grid account")
			return
		}
		wire.WriteJSON(w, http.StatusOK, wire.ResolveResponse{GridID: "dn-" + req.LocalUser})
	}))
	defer endpoint.Close()

	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 1})
	s.irs.SetEndpoint(&EndpointClient{URL: endpoint.URL})

	c := NewClient(s.server.URL, "s")
	g, err := c.Resolve("s", "gx42")
	if err != nil || g != "dn-gx42" {
		t.Errorf("Resolve = %q, %v", g, err)
	}
	if _, err := c.Resolve("s", "plain"); err == nil {
		t.Error("unresolvable account accepted")
	}
	// Memoized in the IRS table now.
	if s.irs.Len() != 1 {
		t.Errorf("IRS table size = %d", s.irs.Len())
	}
}

func TestProjectionSwitchEndpoint(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 0.5, "b": 0.5})
	c := NewClient(s.server.URL, "s")

	if err := c.post(context.Background(), "/fairshare/projection", map[string]string{"name": "dictionary"}, nil); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table()
	if tab.Projection != "dictionary" {
		t.Errorf("projection = %q", tab.Projection)
	}
	if err := c.post(context.Background(), "/fairshare/projection", map[string]string{"name": "bogus"}, nil); err == nil {
		t.Error("unknown projection accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 1})
	for _, ep := range []string{"/policy/mount", "/usage", "/fairshare/refresh", "/identity/mapping"} {
		resp, err := http.Get(s.server.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", ep, resp.StatusCode)
		}
	}
	resp, err := http.Post(s.server.URL+"/usage/records", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /usage/records = %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 1})
	post := func(path, body string) int {
		resp, err := http.Post(s.server.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/usage", `{bad json`); code != http.StatusBadRequest {
		t.Errorf("malformed usage = %d", code)
	}
	if code := post("/usage", `{"user":"","durationSeconds":5}`); code != http.StatusBadRequest {
		t.Errorf("empty user = %d", code)
	}
	if code := post("/usage", `{"user":"u","durationSeconds":-1}`); code != http.StatusBadRequest {
		t.Errorf("negative duration = %d", code)
	}
	if code := post("/identity/mapping", `{"gridId":"","site":"s","localUser":"l"}`); code != http.StatusBadRequest {
		t.Errorf("empty grid id = %d", code)
	}
	resp, _ := http.Get(s.server.URL + "/usage/records?since=notatime")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"a": 1})
	resp, err := http.Get(s.server.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// TestUsageTreeServesDecayedTotals: with the USS's delta view behind the
// UMS the pipeline carries sums at a reference instant, but /usage/tree
// (and UMS.UsageTotals behind it) still answers in decayed core-seconds at
// the instant it was computed.
func TestUsageTreeServesDecayedTotals(t *testing.T) {
	clock := simclock.NewSim(t0)
	decay := usage.ExponentialHalfLife{HalfLife: 6 * time.Hour}
	pol, err := policy.FromShares(map[string]float64{"alice": 0.5, "bob": 0.3, "carol": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	u := uss.New(uss.Config{Site: "s", BinWidth: time.Hour, Contribute: true, Clock: clock})
	m := ums.New(ums.Config{Clock: clock, CacheTTL: time.Minute, Decay: decay}, u.View(true))
	f := fcs.New(fcs.Config{Clock: clock, CacheTTL: time.Minute, Fairshare: fairshare.DefaultConfig()}, pds.New(pol, nil), m)
	srv := httptest.NewServer(NewServer(pds.New(pol, nil), u, m, f, irs.New()))
	defer srv.Close()

	u.ReportJob("alice", t0.Add(-30*time.Hour), 2*time.Hour, 4)
	u.ReportJob("bob", t0.Add(-9*time.Hour), time.Hour, 8)
	if err := f.Refresh(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		clock.Advance(5 * time.Hour) // the reference stays, the scale shrinks
		u.ReportJob("carol", clock.Now().Add(-time.Hour), time.Hour, 2)
		m.Invalidate()
		if err := f.Refresh(); err != nil {
			t.Fatal(err)
		}
		var tree wire.UsageTreeResponse
		resp, err := http.Get(srv.URL + "/usage/tree")
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadJSON(resp.Body, &tree); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := u.GlobalTotals(clock.Now(), decay)
		if len(tree.Totals) != len(want) || !tree.ComputedAt.Equal(clock.Now()) {
			t.Fatalf("step %d: tree %v at %v, want %v at %v", step, tree.Totals, tree.ComputedAt, want, clock.Now())
		}
		for user, w := range want {
			if got := tree.Totals[user]; math.Abs(got-w) > 1e-9*w {
				t.Fatalf("step %d: /usage/tree says %s used %v, decayed total is %v", step, user, got, w)
			}
		}
		ri := f.LastRefresh()
		if ri.Mode != fcs.RefreshIncremental || !ri.UsageReference.Equal(t0) || !(ri.UsageScale < 1) {
			t.Fatalf("step %d: refresh %+v, want incremental over sums at %v", step, ri, t0)
		}
	}
}
