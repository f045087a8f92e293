package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/libaequus"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// deadURL returns a base URL nothing listens on.
func deadURL(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // port released; connections now refused
	return url
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient(deadURL(t), "dead")
	c.HTTP = &http.Client{Timeout: 500 * time.Millisecond}

	if _, err := c.Priority("u"); err == nil {
		t.Error("Priority against dead server succeeded")
	}
	if _, err := c.Table(); err == nil {
		t.Error("Table against dead server succeeded")
	}
	if _, err := c.Resolve("s", "l"); err == nil {
		t.Error("Resolve against dead server succeeded")
	}
	if err := c.ReportJobErr("u", time.Now(), time.Minute, 1); err == nil {
		t.Error("ReportJobErr against dead server succeeded")
	}
	if _, err := c.RecordsSince(context.Background(), time.Time{}); err == nil {
		t.Error("RecordsSince against dead server succeeded")
	}
	if _, err := c.Policy(); err == nil {
		t.Error("Policy against dead server succeeded")
	}
	if err := c.TriggerExchange(context.Background()); err == nil {
		t.Error("TriggerExchange against dead server succeeded")
	}
	// Fire-and-forget ReportJob must not panic.
	c.ReportJob("u", time.Now(), time.Minute, 1)
}

func TestPolicyFetcherAgainstDeadOrigin(t *testing.T) {
	fetch := PolicyFetcher(&http.Client{Timeout: 500 * time.Millisecond})
	if _, err := fetch(deadURL(t) + "|/"); err == nil {
		t.Error("fetch from dead origin succeeded")
	}
}

func TestEndpointClientAgainstDeadServer(t *testing.T) {
	e := &EndpointClient{URL: deadURL(t), HTTP: &http.Client{Timeout: 500 * time.Millisecond}}
	if _, err := e.Resolve("s", "l"); err == nil {
		t.Error("endpoint resolve against dead server succeeded")
	}
}

func TestLibaequusSurvivesServiceOutage(t *testing.T) {
	// The scheduler-side flow: a live site answers, then "goes down"
	// (server closed); cached values keep answering inside the TTL, and the
	// error surfaces only after expiry.
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"alice": 1})
	c := NewClient(s.server.URL, "s")
	if err := c.StoreMapping("alice", "s", "local1"); err != nil {
		t.Fatal(err)
	}
	lib := libaequus.New(libaequus.Config{Site: "s", CacheTTL: time.Hour, Clock: clock}, c, c, c)
	v, err := lib.PriorityForLocalUser("local1")
	if err != nil {
		t.Fatal(err)
	}
	s.server.Close()

	// Within the TTL the cache answers.
	v2, err := lib.PriorityForLocalUser("local1")
	if err != nil || v2 != v {
		t.Errorf("cached answer after outage = %g, %v", v2, err)
	}
	// After expiry the outage surfaces.
	clock.Advance(2 * time.Hour)
	if _, err := lib.PriorityForLocalUser("local1"); err == nil {
		t.Error("expired cache should surface the outage")
	}
}

func TestExchangeSurvivesDeadPeer(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"alice": 1})
	dead := NewClient(deadURL(t), "dead")
	dead.HTTP = &http.Client{Timeout: 500 * time.Millisecond}
	s.uss.AddPeer(dead)
	if _, err := s.uss.Exchange(context.Background()); err == nil {
		t.Error("exchange with dead peer should report an error")
	}
	// The site keeps operating.
	if _, err := NewClient(s.server.URL, "s").Table(); err != nil {
		t.Errorf("site unusable after failed exchange: %v", err)
	}
}

// TestChaosServingThroughPeerOutage: every pull site A makes from site B
// fails on the wire while resource-manager traffic — lookups, batch lookups
// and usage ingest — runs against A and A exchanges and refreshes beside it.
// Peer churn is an exchange-layer problem: no serving call fails, A stays
// ready and names the cause per peer, and once the fault clears one exchange
// brings B's earlier usage into A's priorities.
func TestChaosServingThroughPeerOutage(t *testing.T) {
	clock := simclock.NewSim(t0)
	shares := map[string]float64{"alice": 1.0 / 3, "bob": 1.0 / 3, "carol": 1.0 / 3}
	b := newSite(t, "siteB", clock, shares)
	a := newObservedSite(t, "siteA", clock, shares, ServerOptions{Registry: telemetry.NewRegistry(), Clock: clock})

	// bob's hour at B predates the outage; A's clients only ever ingest for
	// carol, so alice and bob differ at A exactly when B's usage arrived.
	if err := NewClient(b.server.URL, "siteB").ReportJobErr("bob", t0, time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)

	inj := faultinject.New(clock, 1, faultinject.Window{Kind: faultinject.Flap, Rate: 1})
	hc := NewHTTPClient(time.Second)
	hc.Transport = &faultinject.RoundTripper{Base: hc.Transport, Injector: inj}
	t.Cleanup(hc.CloseIdleConnections)
	a.uss.AddPeer(NewClientWith(b.server.URL, "siteB", ClientOptions{HTTP: hc}))
	if err := a.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}

	ca := NewClient(a.server.URL, "siteA")
	refresh := func() {
		t.Helper()
		if err := ca.post(context.Background(), "/fairshare/refresh", nil, nil); err != nil {
			t.Fatalf("refresh: %v", err)
		}
	}
	priorities := func() (alice, bob float64) {
		t.Helper()
		pa, errA := ca.Priority("alice")
		pb, errB := ca.Priority("bob")
		if errA != nil || errB != nil {
			t.Fatalf("priorities: %v, %v", errA, errB)
		}
		return pa.Value, pb.Value
	}

	var (
		progress = make(chan struct{}, 1) // one signal per call, dropped while one is pending
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	serve := func(name string, call func(c *Client) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(a.server.URL, "siteA")
			for !stop.Load() {
				if err := call(c); err != nil {
					mu.Lock()
					failures = append(failures, name+": "+err.Error())
					mu.Unlock()
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	serve("lookup", func(c *Client) error { _, err := c.Priority("alice"); return err })
	serve("batch", func(c *Client) error {
		_, err := c.PriorityBatch([]string{"alice", "bob", "carol"})
		return err
	})
	serve("ingest", func(c *Client) error {
		return c.ReportJobBatch([]wire.UsageReport{
			{User: "carol", Start: clock.Now().Add(-time.Hour), DurationSeconds: 60, Procs: 1},
		})
	})
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt() // a failed round must not leave the clients running

	const rounds = 5
	for r := 0; r < rounds; r++ {
		// Each round overlaps serving traffic: wait for a few more calls.
		for i := 0; i < 6; i++ {
			<-progress
		}
		if err := ca.TriggerExchange(context.Background()); err == nil || !strings.Contains(err.Error(), "flapping peer") {
			t.Fatalf("round %d: exchange through a dead link = %v, want the injected error", r, err)
		}
		refresh()
	}
	halt()
	if len(failures) > 0 {
		t.Fatalf("%d serving calls failed while the peer was down, first: %s", len(failures), failures[0])
	}

	ready, err := ca.Ready(context.Background())
	if err != nil || !ready.Ready {
		t.Fatalf("/readyz under a peer outage = %+v, %v; want ready", ready, err)
	}
	comp := ready.Components["uss"]
	if len(comp.Peers) != 1 || comp.Peers[0].ConsecutiveFailures != rounds ||
		!strings.Contains(comp.Peers[0].LastError, "flapping peer") || !strings.Contains(comp.Reason, "siteB (failing)") {
		t.Errorf("/readyz uss component = %+v, want siteB failing %d times with the injected error", comp, rounds)
	}
	if alice, bob := priorities(); alice != bob {
		t.Fatalf("before any pull succeeded alice = %v, bob = %v; want equal", alice, bob)
	}

	inj.SetWindows()
	if err := ca.TriggerExchange(context.Background()); err != nil {
		t.Fatalf("exchange after the fault cleared: %v", err)
	}
	refresh()
	if alice, bob := priorities(); alice <= bob {
		t.Errorf("after recovery alice (idle) = %v, bob (used at B) = %v; want alice ahead", alice, bob)
	}
}
