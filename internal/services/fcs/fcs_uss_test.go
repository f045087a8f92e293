package fcs

import (
	"math"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// ussRig is the real usage pipeline under the default kind of decay: a USS
// whose delta view feeds a UMS, on a sim clock.
type ussRig struct {
	clock *simclock.Sim
	uss   *uss.Service
	ums   *ums.Service
	decay usage.Decay
}

// newUSSRig gives every user some history well in the past.
func newUSSRig(t *testing.T, users ...string) *ussRig {
	t.Helper()
	r := &ussRig{clock: simclock.NewSim(t0), decay: usage.ExponentialHalfLife{HalfLife: 24 * time.Hour}}
	r.uss = uss.New(uss.Config{Site: "s", BinWidth: time.Hour, Contribute: true, Clock: r.clock})
	r.ums = ums.New(ums.Config{Clock: r.clock, CacheTTL: time.Hour, Decay: r.decay,
		Metrics: telemetry.NewRegistry()}, r.uss.View(true))
	for i, u := range users {
		r.uss.ReportJob(u, t0.Add(-time.Duration(10+i)*time.Hour), time.Hour, 1+i)
	}
	return r
}

// bump completes a job of user's in a bin already closed, a minute later.
func (r *ussRig) bump(user string) {
	r.tick()
	r.uss.ReportJob(user, r.clock.Now().Add(-3*time.Hour), 30*time.Minute, 2)
}

// tick lets a minute of decay pass and makes the next read recompute.
func (r *ussRig) tick() {
	r.clock.Advance(time.Minute)
	r.ums.Invalidate()
}

// TestIncrementalRefreshLifecycleUnderDecay is TestIncrementalRefreshLifecycle
// over the real USS→UMS pipeline with decay on: time passing alone is a
// zero-dirty refresh, a completion dirties its user only — once, also when
// it lands in the open bin — a report from a clock that runs ahead rides
// along until its bin has started, and only the first refresh, a policy edit
// and a moved reference instant rebuild.
func TestIncrementalRefreshLifecycleUnderDecay(t *testing.T) {
	rig := newUSSRig(t, "a", "b", "c", "d")
	p, err := policy.FromShares(map[string]float64{"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pds := newVersionedPDS(p)
	reg := telemetry.NewRegistry()
	svc := New(Config{Clock: rig.clock, CacheTTL: -1, SynchronousRefresh: true, Metrics: reg}, pds, rig.ums)
	// The twin reads complete decayed totals in scale 1: a Full set and a
	// from-scratch rebuild on every refresh.
	twin := New(Config{Clock: rig.clock, CacheTTL: -1, SynchronousRefresh: true,
		Metrics: telemetry.NewRegistry()}, pds, ums.New(ums.Config{Clock: rig.clock, Decay: rig.decay,
		Metrics: telemetry.NewRegistry()}, ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
		return rig.uss.GlobalTotals(now, d), nil
	})))

	refresh := func(step, wantMode string, wantDirty int) {
		t.Helper()
		if err := svc.Refresh(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		ri := svc.LastRefresh()
		if ri.Mode != wantMode || ri.DirtyUsers != wantDirty {
			t.Fatalf("%s: %s refresh of %d users, want %s of %d", step, ri.Mode, ri.DirtyUsers, wantMode, wantDirty)
		}
		if err := svc.VerifySnapshot(); err != nil {
			t.Fatalf("%s: snapshot diverges from full recompute: %v", step, err)
		}
		if want := math.Exp2(-float64(rig.clock.Now().Sub(ri.UsageReference)) / float64(24*time.Hour)); ri.UsageScale != want {
			t.Fatalf("%s: usage scale %v for sums at %v, want %v", step, ri.UsageScale, ri.UsageReference, want)
		}
		if err := twin.Refresh(); err != nil {
			t.Fatal(err)
		}
		for _, u := range []string{"a", "b", "c", "d"} {
			got, _ := svc.Priority(u)
			want, _ := twin.Priority(u)
			if math.Abs(got.Value-want.Value) > 1e-9 || math.Abs(got.Priority-want.Priority) > 1e-9 {
				t.Fatalf("%s: %s has %v/%v over sums, %v/%v over decayed totals", step, u,
					got.Value, got.Priority, want.Value, want.Priority)
			}
		}
	}

	refresh("cold start", RefreshFull, 4)
	rig.bump("b")
	refresh("one completion", RefreshIncremental, 1)

	before, _ := svc.Tree()
	rig.tick()
	refresh("a minute of decay", RefreshIncremental, 0)
	if after, _ := svc.Tree(); before != after {
		t.Fatal("decay alone rebuilt the tree")
	}

	p2, _ := policy.FromShares(map[string]float64{"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
	pds.SetPolicy(p2)
	rig.tick()
	refresh("policy edit", RefreshFull, 4)
	rig.bump("c")
	rig.bump("a")
	refresh("post-edit completions", RefreshIncremental, 2)

	// A completion in the open bin is valued at the bin's midpoint from the
	// start: its user is dirty once, and the clock crossing the midpoint
	// dirties nobody. (It used to stay dirty on every refresh until :30.)
	rig.clock.Advance(rig.clock.Now().Truncate(time.Hour).Add(time.Hour).Sub(rig.clock.Now())) // top of the hour
	rig.ums.Invalidate()
	rig.uss.ReportJob("d", rig.clock.Now().Add(-10*time.Minute), 10*time.Minute, 4)
	refresh("open-bin completion", RefreshIncremental, 1)
	for i := 0; i < 4; i++ { // :09, :18, :27, :36
		rig.clock.Advance(9 * time.Minute)
		rig.ums.Invalidate()
		refresh("open bin, only the clock moved", RefreshIncremental, 0)
	}

	// A completion stamped in the next bin (the reporter's clock runs
	// ahead): clamped, so its user is dirty on every refresh until that bin
	// has started, once more when it has, and then no longer.
	rig.uss.ReportJob("c", rig.clock.Now().Add(20*time.Minute), 10*time.Minute, 4) // ends :06 of the next hour
	rig.ums.Invalidate()
	refresh("report ahead of the clock", RefreshIncremental, 1)
	rig.clock.Advance(9 * time.Minute) // :45
	rig.ums.Invalidate()
	refresh("still clamped", RefreshIncremental, 1)
	rig.clock.Advance(18 * time.Minute) // :03, the bin has started
	rig.ums.Invalidate()
	refresh("clamp lifted", RefreshIncremental, 1)
	rig.tick()
	refresh("quiet again", RefreshIncremental, 0)

	// Seventeen half-lives of silence: the reference instant moves, every
	// sum changes, the refresh rebuilds and re-anchors.
	rig.clock.Advance(17 * 24 * time.Hour)
	rig.ums.Invalidate()
	refresh("moved reference", RefreshFull, 4)
	if ref := svc.LastRefresh().UsageReference; !ref.Equal(rig.clock.Now()) {
		t.Fatalf("reference %v after the move, want %v", ref, rig.clock.Now())
	}
	rig.bump("d")
	refresh("after the move", RefreshIncremental, 1)

	incr := reg.Counter("aequus_fcs_refresh_incremental_total", "").Value()
	full := reg.Counter("aequus_fcs_refresh_full_total", "").Value()
	if incr != 13 || full != 3 {
		t.Fatalf("refresh counters: incremental=%v full=%v, want 13/3", incr, full)
	}
}
