package core_test

import (
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

// TestDriftGaugesTrackPartition pins the fairness-drift observability story:
// two sites each host one of two equal-share users, so site 0's drift is ~0
// exactly when the exchange keeps it seeing bob's remote usage. Cutting the
// site0→site1 link must drive the drift-max gauge up (alice's local usage
// keeps growing while bob's ingested share freezes) and age out the peer
// watermark; two clean rounds after the fault window lapses — the breaker's
// recovery bound — both gauges must return to healthy levels.
func TestDriftGaugesTrackPartition(t *testing.T) {
	t0 := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(t0)
	pol, err := policy.FromShares(map[string]float64{"alice": 0.5, "bob": 0.5})
	if err != nil {
		t.Fatal(err)
	}

	var sites []*core.Site
	var regs []*telemetry.Registry
	for i := 0; i < 2; i++ {
		reg := telemetry.NewRegistry()
		site, err := core.NewSite(core.SiteConfig{
			Name:                  siteName(i),
			Policy:                pol,
			Clock:                 clock,
			BinWidth:              chaosRound,
			Decay:                 usage.None{},
			Contribute:            true,
			UseGlobal:             true,
			FCSSynchronousRefresh: true,
			Metrics:               reg,
			PeerTimeout:           time.Second,
			PeerBreaker: resilience.BreakerConfig{
				Threshold: 2,
				Cooldown:  2 * chaosRound,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, site)
		regs = append(regs, reg)
	}

	// alice computes only at site 0, bob only at site 1, identical loads —
	// site 0's view is balanced iff the exchange is flowing.
	report := func(now time.Time) {
		sites[0].USS.ReportJob("alice", now, chaosRound, 1)
		sites[1].USS.ReportJob("bob", now, chaosRound, 1)
	}
	round := func() {
		report(clock.Now())
		clock.Advance(chaosRound)
		for _, s := range sites {
			_ = s.Exchange() // pull errors during the fault window are the point
			if err := s.Refresh(); err != nil {
				t.Fatalf("refresh: %v", err)
			}
		}
	}
	driftMax := func() float64 {
		return regs[0].Gauge("aequus_fcs_drift_max_ratio", "").Value()
	}
	wmAge := func() float64 {
		return regs[0].GaugeVec("aequus_uss_peer_watermark_age_seconds", "", "peer").
			With(siteName(1)).Value()
	}

	// Window boundaries sit mid-round so the last healthy exchange (at
	// exactly t0+3R) stays clean and the six fault-phase exchanges are all
	// covered.
	const faultRounds = 6
	fStart := t0.Add(3*chaosRound + chaosRound/2)
	inj := faultinject.New(clock, 1, faultinject.Window{
		From: fStart, Until: fStart.Add(faultRounds * chaosRound),
		Kind: faultinject.Error,
	})
	sites[0].ConnectPeer(&faultinject.FaultyPeer{Peer: sites[1].USS, Inj: inj})
	sites[1].ConnectPeer(sites[0].USS)

	// Healthy baseline: both users visible, drift negligible.
	for r := 0; r < 3; r++ {
		round()
	}
	if d := driftMax(); d > 0.05 {
		t.Fatalf("healthy drift max = %v, want ~0", d)
	}

	// Fault window: site 0 stops ingesting bob. Its view of alice's share
	// climbs toward 9/12 = 0.75 against a 0.5 target, and the watermark —
	// frozen at bob's last pre-fault interval — ages out.
	for r := 0; r < faultRounds; r++ {
		round()
	}
	if d := driftMax(); d < 0.2 {
		t.Errorf("drift max = %v during partition, want > 0.2", d)
	}
	if age := wmAge(); age < 5*chaosRound.Seconds() {
		t.Errorf("watermark age = %vs during partition, want > %vs", age, 5*chaosRound.Seconds())
	}
	if mean := regs[0].Gauge("aequus_fcs_drift_mean_ratio", "").Value(); mean <= 0 {
		t.Errorf("drift mean = %v during partition, want > 0", mean)
	}

	// Faults lapse on the clock. Round 1 is still inside the breaker's
	// cooldown (skipped), round 2 is the half-open probe: it replays the
	// full backlog from the frozen watermark, so drift and watermark age
	// both recover within the two-round bound.
	for r := 0; r < 2; r++ {
		round()
	}
	if d := driftMax(); d > 0.05 {
		t.Errorf("drift max = %v after recovery, want < 0.05", d)
	}
	if age := wmAge(); age < 0 || age > (2*chaosRound+chaosRound).Seconds() {
		t.Errorf("watermark age = %vs after recovery, want fresh", age)
	}
}
