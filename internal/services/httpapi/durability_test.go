package httpapi

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/durability"
	"repro/internal/fairshare"
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

// newDurableSite builds a full site stack whose USS write-ahead-logs into
// dir, with the log surfaced on /readyz via ServerOptions.Durability. The
// caller drives Replay/MarkReady — that lifecycle is what the tests probe.
func newDurableSite(t *testing.T, name, dir string, clock *simclock.Sim) (*site, *durability.Log) {
	t.Helper()
	pol, err := policy.FromShares(map[string]float64{"alice": 0.5, "bob": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d, err := durability.Open(durability.Options{Dir: dir, Sync: durability.SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatalf("durability.Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	p := pds.New(pol, PolicyFetcher(nil))
	u := uss.New(uss.Config{Site: name, BinWidth: time.Hour, Contribute: true, Clock: clock, Metrics: reg, Durable: d})
	m := ums.New(ums.Config{Clock: clock, CacheTTL: 0, Metrics: reg},
		ums.SourceFunc(func(now time.Time, dec usage.Decay) (map[string]float64, error) {
			return u.GlobalTotals(now, dec), nil
		}))
	f := fcs.New(fcs.Config{Clock: clock, CacheTTL: 0, Fairshare: fairshare.DefaultConfig(), Metrics: reg}, p, m)
	i := irs.New()
	srv := httptest.NewServer(NewServerWith(p, u, m, f, i,
		ServerOptions{Registry: reg, Clock: clock, Durability: d}))
	t.Cleanup(srv.Close)
	return &site{name: name, clock: clock, pds: p, uss: u, ums: m, fcs: f, irs: i, server: srv}, d
}

// TestReadyzRecovery walks /readyz through the full recovery lifecycle: 503
// with a replay-progress reason while the WAL tail is pending, 503 with an
// awaiting-publish reason once replay finishes, and 200 only after the first
// post-replay fairshare publish flips MarkReady. It also proves the
// pre-crash watermark contract at the HTTP layer: a peer pulling
// /usage/records mid-recovery gets the frozen snapshot image bit-for-bit,
// never a partially replayed histogram.
func TestReadyzRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewSim(t0)
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)

	// First life: two reports, snapshot, one tail report that lives only in
	// the WAL, then die.
	s1, d1 := newDurableSite(t, "s", dir, clock)
	if err := d1.Replay(s1.uss.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	s1.uss.ReportJob("alice", base, 90*time.Minute, 4)
	s1.uss.ReportJob("bob", base.Add(time.Hour), 2*time.Hour, 2)
	if err := d1.Snapshot(func() (*durability.SnapshotState, error) {
		return s1.uss.CaptureState(), nil
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	preCrash := s1.uss.LocalRecords()
	s1.uss.ReportJob("alice", base.Add(5*time.Hour), time.Hour, 8)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the log comes up recovering with the snapshot's local set
	// and one tail record pending.
	s2, d2 := newDurableSite(t, "s", dir, clock)
	c := NewClient(s2.server.URL, "s")

	status := func() int {
		t.Helper()
		resp, err := http.Get(s2.server.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	durComp := func() (bool, string) {
		t.Helper()
		r, err := c.Ready(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		dc, ok := r.Components["durability"]
		if !ok {
			t.Fatal("/readyz has no durability component on a durable site")
		}
		return dc.Ready, dc.Reason
	}

	// A refresh makes FCS and UMS fresh, isolating durability as the one
	// component holding readiness at 503.
	if err := s2.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Phase 1: recovering. Not ready, and the reason names replay progress.
	if code := status(); code != http.StatusServiceUnavailable {
		t.Errorf("recovering /readyz = %d, want 503", code)
	}
	ready, reason := durComp()
	if ready {
		t.Error("durability component ready while WAL tail is pending")
	}
	if want := "recovering: replaying WAL (0/2 records)"; reason != want {
		t.Errorf("recovering reason = %q, want %q", reason, want)
	}

	// Mid-recovery, a peer pull through the HTTP API serves the frozen
	// pre-crash image: exactly the snapshot's records, bitwise, without the
	// WAL-tail report.
	recs, err := c.RecordsSince(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(preCrash) {
		t.Fatalf("mid-recovery /usage/records has %d records, want %d (frozen image)", len(recs), len(preCrash))
	}
	for i := range recs {
		if recs[i].User != preCrash[i].User || !recs[i].IntervalStart.Equal(preCrash[i].IntervalStart) ||
			math.Float64bits(recs[i].CoreSeconds) != math.Float64bits(preCrash[i].CoreSeconds) {
			t.Fatalf("mid-recovery record %d = %+v, want %+v", i, recs[i], preCrash[i])
		}
	}

	// Phase 2: replayed but not yet republished. Still 503, new reason.
	if err := d2.Replay(s2.uss.ApplyMutation); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if code := status(); code != http.StatusServiceUnavailable {
		t.Errorf("post-replay /readyz = %d, want 503", code)
	}
	ready, reason = durComp()
	if ready {
		t.Error("durability component ready before first post-replay publish")
	}
	if want := "recovered: awaiting first fairshare publish"; reason != want {
		t.Errorf("post-replay reason = %q, want %q", reason, want)
	}

	// The tail record is live now: peers see past the pre-crash watermark.
	recs, err = c.RecordsSince(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(preCrash)+1 {
		t.Fatalf("post-replay /usage/records has %d records, want %d", len(recs), len(preCrash)+1)
	}

	// Phase 3: first post-replay fairshare publish, then MarkReady → 200.
	if err := s2.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}
	d2.MarkReady()
	if code := status(); code != http.StatusOK {
		t.Errorf("recovered /readyz = %d, want 200", code)
	}
	if ready, reason = durComp(); !ready || reason != "" {
		t.Errorf("recovered durability component = (%v, %q), want (true, \"\")", ready, reason)
	}
}

// TestReadyzNonDurableOmitsComponent pins that sites without a WAL don't
// grow a durability component — /readyz stays exactly as before.
func TestReadyzNonDurableOmitsComponent(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newObservedSite(t, "s", clock, map[string]float64{"a": 1},
		ServerOptions{Registry: telemetry.NewRegistry(), Clock: clock})
	if err := s.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}
	r, err := NewClient(s.server.URL, "s").Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Components["durability"]; ok {
		t.Error("non-durable site reports a durability component")
	}
	if !r.Ready {
		t.Errorf("non-durable site not ready: %+v", r)
	}
}

// TestReadyzRecoveringProgressCounts: the replay-progress reason advances as
// records apply — an operator watching /readyz can see a long replay move.
func TestReadyzRecoveringProgressCounts(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewSim(t0)
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)

	s1, d1 := newDurableSite(t, "s", dir, clock)
	if err := d1.Replay(s1.uss.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s1.uss.ReportJob("alice", base.Add(time.Duration(i)*time.Hour), time.Hour, 1)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, d2 := newDurableSite(t, "s", dir, clock)
	c := NewClient(s2.server.URL, "s")
	seen := make(map[string]bool)
	record := func() {
		r, err := c.Ready(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen[r.Components["durability"].Reason] = true
	}
	record() // (0/3)
	applied := 0
	err := d2.Replay(func(m *usage.Mutation) error {
		if err := s2.uss.ApplyMutation(m); err != nil {
			return err
		}
		applied++
		// The done counter advances after the applier returns, so the Nth
		// apply still reads (N-1)/3 — including the last, which is the final
		// mid-replay observation before the log flips recovered.
		record()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(0/3 records)", "(1/3 records)", "(2/3 records)"} {
		found := false
		for reason := range seen {
			if strings.Contains(reason, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("replay progress %q never surfaced on /readyz; saw %v", want, seen)
		}
	}
}
