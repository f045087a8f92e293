package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

const chaosRound = 10 * time.Minute

// siteName is the federation's site naming, as the metrics label peers.
func siteName(i int) string { return fmt.Sprintf("site%02d", i) }

// chaosFederation is three full Aequus sites on a shared simulated clock,
// with per-site registries so metrics stay separable.
type chaosFederation struct {
	sites []*core.Site
	regs  []*telemetry.Registry
}

func newChaosFederation(t *testing.T, clock simclock.Clock) *chaosFederation {
	t.Helper()
	pol, err := policy.FromShares(map[string]float64{
		"alice": 0.5, "bob": 0.3, "carol": 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &chaosFederation{}
	for i := 0; i < 3; i++ {
		reg := telemetry.NewRegistry()
		site, err := core.NewSite(core.SiteConfig{
			Name:                  siteName(i),
			Policy:                pol,
			Clock:                 clock,
			BinWidth:              chaosRound,
			Decay:                 usage.None{},
			Contribute:            true,
			UseGlobal:             true,
			UMSCacheTTL:           chaosRound,
			FCSCacheTTL:           chaosRound,
			FCSSynchronousRefresh: true,
			LibCacheTTL:           chaosRound / 2,
			Metrics:               reg,
			PeerTimeout:           time.Second,
			PeerBreaker: resilience.BreakerConfig{
				Threshold: 2,
				// Two rounds: an open circuit skips one exchange, then gets
				// its half-open probe — so after faults clear, recovery costs
				// at most two rounds (the acceptance bound).
				Cooldown: 2 * chaosRound,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.sites = append(f.sites, site)
		f.regs = append(f.regs, reg)
	}
	return f
}

// report feeds one deterministic round of usage: each site completes one job
// for "its" user. Both federations receive identical reports.
func (f *chaosFederation) report(now time.Time) {
	for i, user := range []string{"alice", "bob", "carol"} {
		f.sites[i].USS.ReportJob(user, now, time.Duration(i+1)*30*time.Minute, 1)
	}
}

// round runs one exchange + refresh pass over all sites, bounding each
// site's exchange with a deadline, and fails the test if any round overruns
// it (a hung peer must never stall the driver). Per-site pull errors are
// returned for the caller to assert on.
func (f *chaosFederation) round(t *testing.T, deadline time.Duration) []error {
	t.Helper()
	errs := make([]error, len(f.sites))
	for i, s := range f.sites {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		errs[i] = s.ExchangeContext(ctx)
		// A per-peer timeout legitimately surfaces as DeadlineExceeded in the
		// round's error; only the round context expiring means an overrun.
		overran := ctx.Err() != nil
		cancel()
		if overran {
			t.Fatalf("site %d exchange overran its %v deadline", i, deadline)
		}
	}
	for i, s := range f.sites {
		if err := s.Refresh(); err != nil {
			t.Fatalf("site %d refresh: %v", i, err)
		}
	}
	return errs
}

// priorities reads site 0's served values for every user, asserting the
// read path works — this is the "local serving never blocks" probe.
func (f *chaosFederation) priorities(t *testing.T) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, u := range []string{"alice", "bob", "carol"} {
		resp, err := f.sites[0].FCS.Priority(u)
		if err != nil {
			t.Fatalf("local serving failed for %s: %v", u, err)
		}
		out[u] = resp.Value
	}
	return out
}

// TestChaosConvergenceAfterFaultsClear is the acceptance gauntlet: site 0's
// link to site 1 is permanently down and its link to site 2 flaps at a 30%
// error rate. Local priority serving must keep working throughout, every
// exchange round must complete within its deadline, and within two rounds
// of the faults clearing site 0's priorities must exactly equal those of an
// identically-fed fault-free twin federation.
func TestChaosConvergenceAfterFaultsClear(t *testing.T) {
	t0 := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(t0)
	faulty := newChaosFederation(t, clock)
	healthy := newChaosFederation(t, clock)

	const faultRounds = 6
	tClear := t0.Add(faultRounds * chaosRound)
	injDead := faultinject.New(clock, 1, faultinject.Window{
		From: t0, Until: tClear, Kind: faultinject.Error,
	})
	injFlap := faultinject.New(clock, 42, faultinject.Window{
		From: t0, Until: tClear, Kind: faultinject.Flap, Rate: 0.3,
	})

	// Faulty federation: site 0 reaches its peers through the injectors;
	// every other link is clean. The healthy twin is a full clean mesh.
	faulty.sites[0].ConnectPeer(&faultinject.FaultyPeer{Peer: faulty.sites[1].USS, Inj: injDead})
	faulty.sites[0].ConnectPeer(&faultinject.FaultyPeer{Peer: faulty.sites[2].USS, Inj: injFlap})
	for i := 1; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				faulty.sites[i].ConnectPeer(faulty.sites[j].USS)
			}
		}
	}
	core.FullMesh(healthy.sites)

	sawExchangeError := false
	for r := 0; r < faultRounds; r++ {
		now := clock.Now()
		faulty.report(now)
		healthy.report(now)
		clock.Advance(chaosRound)
		if errs := faulty.round(t, 5*time.Second); errs[0] != nil {
			sawExchangeError = true
		}
		healthy.round(t, 5*time.Second)
		// The acceptance property under fault: the local read path serves.
		faulty.priorities(t)
	}
	if !sawExchangeError {
		t.Error("no exchange error surfaced while a peer was down")
	}

	// The dead link must have tripped its breaker and been skipped.
	var buf bytes.Buffer
	_ = faulty.regs[0].WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`aequus_peer_circuit_trips_total{peer="site01"}`,
		`aequus_uss_exchange_skipped_total{peer="site01"}`,
		`aequus_uss_exchange_errors_total{peer="site01"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if injDead.Counts()[faultinject.Error] == 0 {
		t.Error("the dead link's injector never fired")
	}

	// Faults clear (windows lapse on the clock). Two rounds later the
	// faulty federation must have caught up exactly: the dead peer's
	// watermark never advanced, so its first healthy pull replays the full
	// history.
	for r := 0; r < 2; r++ {
		now := clock.Now()
		faulty.report(now)
		healthy.report(now)
		clock.Advance(chaosRound)
		faulty.round(t, 5*time.Second)
		healthy.round(t, 5*time.Second)
	}
	got, want := faulty.priorities(t), healthy.priorities(t)
	for _, u := range []string{"alice", "bob", "carol"} {
		if got[u] != want[u] {
			t.Errorf("%s priority = %v after recovery, fault-free twin has %v", u, got[u], want[u])
		}
	}
	// Sanity: the comparison is meaningful only if usage actually shaped
	// the priorities (all-equal values would pass vacuously).
	if want["alice"] == want["carol"] {
		t.Errorf("fault-free priorities degenerate: %+v", want)
	}

	// And the breaker has closed again.
	for _, st := range faulty.sites[0].USS.PeerStatuses() {
		if st.Breaker != "closed" {
			t.Errorf("peer %s breaker = %s after recovery, want closed", st.Site, st.Breaker)
		}
		if st.Site == "site01" && st.LastSuccess.IsZero() {
			t.Error("recovered dead peer has no LastSuccess")
		}
	}
}

// TestChaosDeadPeerNeverBlocksLocalServing pins the sharper liveness claim:
// with every peer unreachable and hanging to its deadline, local reporting,
// refresh and priority serving still work, and each exchange round is
// bounded by the per-peer timeout rather than hanging forever.
func TestChaosDeadPeerNeverBlocksLocalServing(t *testing.T) {
	t0 := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(t0)
	f := newChaosFederation(t, clock)
	inj := faultinject.New(clock, 7, faultinject.Window{Kind: faultinject.Timeout})
	f.sites[0].ConnectPeer(&faultinject.FaultyPeer{Peer: f.sites[1].USS, Inj: inj})
	f.sites[0].ConnectPeer(&faultinject.FaultyPeer{Peer: f.sites[2].USS, Inj: inj})

	for r := 0; r < 4; r++ {
		f.report(clock.Now())
		clock.Advance(chaosRound)
		start := time.Now()
		errs := f.round(t, 5*time.Second)
		if r == 0 && errs[0] == nil {
			t.Error("hanging peers reported no exchange error")
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("round took %v with hanging peers", elapsed)
		}
		got := f.priorities(t)
		// Site 0 still prioritizes from local usage: alice reported there.
		if got["alice"] <= 0 {
			t.Errorf("round %d: alice priority = %v, want > 0 from local usage", r, got["alice"])
		}
	}
}
