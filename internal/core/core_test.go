package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/policy"
	"repro/internal/services/irs"
	"repro/internal/simclock"
	"repro/internal/usage"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func newTestSite(t *testing.T, name string, clock simclock.Clock, contribute, useGlobal bool) *Site {
	t.Helper()
	p, err := policy.FromShares(map[string]float64{"alice": 0.5, "bob": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSite(SiteConfig{
		Name:       name,
		Policy:     p,
		Clock:      clock,
		BinWidth:   time.Minute,
		Contribute: contribute,
		UseGlobal:  useGlobal,
		ResolveEndpoint: irs.EndpointFunc(func(site, local string) (string, error) {
			return local, nil // identity mapping for tests
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSiteValidation(t *testing.T) {
	p, _ := policy.FromShares(map[string]float64{"a": 1})
	if _, err := NewSite(SiteConfig{Policy: p}); err == nil {
		t.Error("missing name accepted")
	}
	if _, err := NewSite(SiteConfig{Name: "s"}); err == nil {
		t.Error("missing policy accepted")
	}
	bad := policy.NewTree()
	bad.Root.Children = []*policy.Node{{Name: "x", Share: -1}}
	if _, err := NewSite(SiteConfig{Name: "s", Policy: bad}); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestEndToEndSingleSite(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newTestSite(t, "s", clock, true, true)

	// Both users start balanced.
	pa, err := s.Lib.PriorityForLocalUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := s.Lib.PriorityForLocalUser("bob")
	if pa != pb {
		t.Errorf("initial priorities differ: %g vs %g", pa, pb)
	}

	// bob consumes; after refresh alice outranks bob.
	if err := s.Lib.JobComplete("bob", t0, time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	pa, _ = s.Lib.PriorityForLocalUser("alice")
	pb, _ = s.Lib.PriorityForLocalUser("bob")
	if pa <= pb {
		t.Errorf("alice=%g should outrank bob=%g after bob's usage", pa, pb)
	}
}

func TestGlobalVsLocalPrioritization(t *testing.T) {
	clock := simclock.NewSim(t0)
	global := newTestSite(t, "global", clock, true, true)
	localOnly := newTestSite(t, "localonly", clock, true, false)
	remote := newTestSite(t, "remote", clock, true, true)
	FullMesh([]*Site{global, localOnly, remote})

	// bob consumes heavily on the remote site only.
	remote.USS.ReportJob("bob", t0, 10*time.Hour, 4)
	clock.Advance(time.Hour)
	for _, s := range []*Site{global, localOnly, remote} {
		if err := s.Exchange(); err != nil {
			t.Fatal(err)
		}
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}

	// The globally-aware site discounts bob; the local-only site sees no
	// usage at all and keeps them equal.
	ga, _ := global.Lib.PriorityForLocalUser("alice")
	gb, _ := global.Lib.PriorityForLocalUser("bob")
	if ga <= gb {
		t.Errorf("global site: alice=%g should outrank bob=%g", ga, gb)
	}
	la, _ := localOnly.Lib.PriorityForLocalUser("alice")
	lb, _ := localOnly.Lib.PriorityForLocalUser("bob")
	if la != lb {
		t.Errorf("local-only site should be blind to remote usage: %g vs %g", la, lb)
	}
}

func TestFullMeshExchange(t *testing.T) {
	clock := simclock.NewSim(t0)
	sites := []*Site{
		newTestSite(t, "a", clock, true, true),
		newTestSite(t, "b", clock, true, true),
		newTestSite(t, "c", clock, true, true),
	}
	FullMesh(sites)
	sites[0].USS.ReportJob("alice", t0, time.Hour, 1)
	clock.Advance(2 * time.Hour)
	for _, s := range sites {
		if err := s.Exchange(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sites {
		got := s.USS.GlobalTotals(clock.Now(), usage.None{})
		if got["alice"] < 3599 {
			t.Errorf("site %s global alice = %g", s.Name, got["alice"])
		}
	}
}

func TestExplicitMappingsViaIRS(t *testing.T) {
	clock := simclock.NewSim(t0)
	p, _ := policy.FromShares(map[string]float64{"grid-alice": 1})
	s, err := NewSite(SiteConfig{Name: "s", Policy: p, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Without endpoint or mapping, resolution fails.
	if _, err := s.Lib.PriorityForLocalUser("gx01"); err == nil {
		t.Error("unmapped account resolved")
	}
	s.IRS.Store(identity.Mapping{GridID: "grid-alice", Site: "s", LocalUser: "gx01"})
	s.Lib.FlushCaches()
	v, err := s.Lib.PriorityForLocalUser("gx01")
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("priority = %g", v)
	}
}

// TestSitesAgreeAcrossReferenceInstants: every site carries usage sums at
// its own reference instant — here two and a half days apart — yet once the
// federation is quiescent all sites publish the same priorities, because the
// calculation only reads usage as ratios and each site's scale cancels.
func TestSitesAgreeAcrossReferenceInstants(t *testing.T) {
	clock := simclock.NewSim(t0)
	decay := usage.ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	users := map[string]float64{"alice": 0.4, "bob": 0.3, "carol": 0.2, "dave": 0.1}
	names := []string{"alice", "bob", "carol", "dave"}
	var sites []*Site
	for _, name := range []string{"a", "b"} {
		p, err := policy.FromShares(users)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSite(SiteConfig{Name: name, Policy: p, Clock: clock, BinWidth: time.Hour,
			Decay: decay, Contribute: true, UseGlobal: true, UMSCacheTTL: time.Minute, FCSCacheTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, s)
	}
	FullMesh(sites)
	work := func(s *Site, seed int) {
		for i, u := range names {
			// Completed just now: the exchange only re-pulls open bins.
			dur := time.Duration(20+7*((seed+i)%5)) * time.Minute
			s.USS.ReportJob(u, clock.Now().Add(-dur), dur, 1+(seed+i)%3)
		}
	}
	round := func(refresh ...*Site) {
		for pass := 0; pass < 2; pass++ {
			for _, s := range sites {
				if err := s.Exchange(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, s := range refresh {
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Site a publishes from the start; site b's first refresh (which fixes
	// its reference instant) comes two and a half days later.
	for step := 0; step < 5; step++ {
		work(sites[0], step)
		work(sites[1], step+2)
		round(sites[0])
		clock.Advance(12 * time.Hour)
	}
	for step := 0; step < 6; step++ {
		work(sites[step%2], step)
		clock.Advance(17 * time.Minute)
		round(sites...)

		ra, rb := sites[0].FCS.LastRefresh(), sites[1].FCS.LastRefresh()
		if !ra.UsageReference.Equal(t0) || !rb.UsageReference.Equal(t0.Add(60*time.Hour+17*time.Minute)) {
			t.Fatalf("step %d: reference instants %v and %v", step, ra.UsageReference, rb.UsageReference)
		}
		if step > 0 && (ra.Mode != "incremental" || rb.Mode != "incremental") {
			t.Fatalf("step %d: refresh modes %s/%s, want incremental on both sites", step, ra.Mode, rb.Mode)
		}
		ta, err := sites[0].FCS.Table()
		if err != nil {
			t.Fatal(err)
		}
		tb, err := sites[1].FCS.Table()
		if err != nil {
			t.Fatal(err)
		}
		for i, ea := range ta.Entries {
			eb := tb.Entries[i]
			if ea.User != eb.User || math.Abs(ea.Value-eb.Value) > 1e-9 || math.Abs(ea.Priority-eb.Priority) > 1e-9 {
				t.Fatalf("step %d: site a says %s %v/%v, site b says %s %v/%v", step,
					ea.User, ea.Value, ea.Priority, eb.User, eb.Value, eb.Priority)
			}
		}
		for _, s := range sites {
			if err := s.FCS.VerifySnapshot(); err != nil {
				t.Fatalf("step %d: %s: %v", step, s.Name, err)
			}
		}
	}
}
