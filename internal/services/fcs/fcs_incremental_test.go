package fcs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
	"repro/internal/vector"
)

// deltaUMS is a usage source with a one-generation delta memory, like the
// UMS: a consumer exactly one version behind gets the incremental set,
// everyone else a full snapshot. fullNext forces the next pull to be full
// regardless (simulating a consumer that fell two generations behind).
type deltaUMS struct {
	mu       sync.Mutex
	totals   map[string]float64
	version  uint64
	changed  map[string]float64
	fullNext bool
}

func newDeltaUMS(totals map[string]float64) *deltaUMS {
	cp := map[string]float64{}
	for k, v := range totals {
		cp[k] = v
	}
	return &deltaUMS{totals: cp, version: 1}
}

func (d *deltaUMS) copyTotals() map[string]float64 {
	cp := make(map[string]float64, len(d.totals))
	for k, v := range d.totals {
		cp[k] = v
	}
	return cp
}

func (d *deltaUMS) UsageDeltas(since uint64) (usage.DeltaSet, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fullNext {
		d.fullNext = false
		return usage.DeltaSet{Version: d.version, Full: true, Totals: d.copyTotals()}, nil
	}
	if since == d.version {
		return usage.DeltaSet{Version: d.version}, nil
	}
	if since == d.version-1 && d.changed != nil {
		return usage.DeltaSet{Version: d.version, Changed: d.changed}, nil
	}
	return usage.DeltaSet{Version: d.version, Full: true, Totals: d.copyTotals()}, nil
}

// apply advances the source by one generation: ch maps users to new absolute
// totals (0 removes the user).
func (d *deltaUMS) apply(ch map[string]float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.version++
	d.changed = map[string]float64{}
	for u, v := range ch {
		d.changed[u] = v
		if v == 0 {
			delete(d.totals, u)
			continue
		}
		d.totals[u] = v
	}
}

func newIncrementalFCS(t *testing.T, proj vector.Projection) (*Service, *pds.Service, *deltaUMS, *telemetry.Registry) {
	t.Helper()
	p, err := policy.FromShares(map[string]float64{"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	src := pds.New(p, nil)
	ums := newDeltaUMS(map[string]float64{"a": 10, "b": 20, "c": 30, "d": 40})
	reg := telemetry.NewRegistry()
	svc := New(Config{Clock: simclock.NewSim(t0), CacheTTL: -1, Projection: proj,
		SynchronousRefresh: true, Metrics: reg}, src, ums)
	return svc, src, ums, reg
}

func TestIncrementalRefreshLifecycle(t *testing.T) {
	svc, src, ums, reg := newIncrementalFCS(t, nil)

	mustVerify := func(step string) {
		t.Helper()
		if err := svc.VerifySnapshot(); err != nil {
			t.Fatalf("%s: snapshot diverges from full recompute: %v", step, err)
		}
	}
	refresh := func(step, wantMode string, wantDirty int) {
		t.Helper()
		if err := svc.Refresh(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		ri := svc.LastRefresh()
		if ri.Mode != wantMode {
			t.Fatalf("%s: mode = %q, want %q", step, ri.Mode, wantMode)
		}
		if ri.DirtyUsers != wantDirty {
			t.Fatalf("%s: dirty users = %d, want %d", step, ri.DirtyUsers, wantDirty)
		}
		mustVerify(step)
	}

	// Cold start: no engine, no watermark — full.
	refresh("cold start", RefreshFull, 4)

	// One user changed: the steady-state incremental path.
	ums.apply(map[string]float64{"b": 25})
	refresh("single-user delta", RefreshIncremental, 1)

	// Nothing changed: incremental with zero dirty leaves; the engine hands
	// back the same tree and the snapshot is republished wholesale.
	before, _ := svc.Tree()
	refresh("no-op delta", RefreshIncremental, 0)
	after, _ := svc.Tree()
	if before != after {
		t.Fatal("no-op refresh rebuilt the tree instead of reusing it")
	}

	// A delta whose values are bitwise identical to current state is also a
	// zero-dirty incremental refresh.
	ums.apply(map[string]float64{"b": 25})
	refresh("bitwise no-op delta", RefreshIncremental, 0)

	// Policy edit: a new tree, so the refresh must go full even though the
	// usage source could serve a delta.
	p2, err := policy.FromShares(map[string]float64{"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetPolicy(p2); err != nil {
		t.Fatal(err)
	}
	refresh("policy edit", RefreshFull, 4)

	// Back to incremental on the new anchor, including a user removal
	// (total drops to zero — the leaf stays, its usage goes to 0).
	ums.apply(map[string]float64{"c": 0, "a": 11})
	refresh("post-edit delta", RefreshIncremental, 2)

	// Source refuses a delta (log overflow): full rebuild, then the chain
	// resumes incrementally.
	ums.fullNext = true
	ums.apply(map[string]float64{"d": 41})
	refresh("forced full delta", RefreshFull, 4)
	ums.apply(map[string]float64{"d": 42})
	refresh("post-overflow delta", RefreshIncremental, 1)

	incr := reg.Counter("aequus_fcs_refresh_incremental_total", "").Value()
	full := reg.Counter("aequus_fcs_refresh_full_total", "").Value()
	if incr != 5 || full != 3 {
		t.Fatalf("refresh counters: incremental=%v full=%v, want 5/3", incr, full)
	}
	if dirty := reg.Gauge("aequus_fcs_dirty_users", "").Value(); dirty != 1 {
		t.Fatalf("dirty-user gauge = %v, want 1 (last refresh)", dirty)
	}
}

// TestIncrementalMatchesFullService drives an incremental service and a
// delta-blind twin through the same usage history and requires identical
// priorities at every step — the end-to-end bit-identity guarantee.
func TestIncrementalMatchesFullService(t *testing.T) {
	for _, proj := range []vector.Projection{vector.Percental{}, vector.Bitwise{}, vector.Dictionary{}} {
		svc, _, ums, _ := newIncrementalFCS(t, proj)
		p, _ := policy.FromShares(map[string]float64{"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
		twin := New(Config{Clock: simclock.NewSim(t0), CacheTTL: -1, Projection: proj,
			SynchronousRefresh: true, Metrics: telemetry.NewRegistry()},
			staticPDS{p}, &staticUMS{totals: map[string]float64{"a": 10, "b": 20, "c": 30, "d": 40}})

		steps := []map[string]float64{
			{"a": 15},
			{"b": 0, "c": 31},
			{},
			{"d": 40.000001},
			{"a": 0, "b": 2, "c": 3, "d": 4},
		}
		for si, ch := range steps {
			if len(ch) > 0 {
				ums.apply(ch)
			}
			// Feed the twin the same absolute totals.
			full, _ := ums.UsageDeltas(0)
			twin.ums.(*staticUMS).SetTotals(full.Totals)
			if err := svc.Refresh(); err != nil {
				t.Fatal(err)
			}
			if err := twin.Refresh(); err != nil {
				t.Fatal(err)
			}
			for _, u := range []string{"a", "b", "c", "d"} {
				got, err1 := svc.Priority(u)
				want, err2 := twin.Priority(u)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s step %d user %s: err %v vs %v", proj.Name(), si, u, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if got.Value != want.Value || got.Priority != want.Priority {
					t.Fatalf("%s step %d user %s: incremental %v/%v, full %v/%v",
						proj.Name(), si, u, got.Value, got.Priority, want.Value, want.Priority)
				}
				if len(got.Vector) != len(want.Vector) {
					t.Fatalf("%s step %d user %s: vector lengths differ", proj.Name(), si, u)
				}
				for i := range got.Vector {
					if got.Vector[i] != want.Vector[i] {
						t.Fatalf("%s step %d user %s: vectors differ at %d", proj.Name(), si, u, i)
					}
				}
			}
		}
	}
}

// TestLegacySourcesStayFull: sources that cannot say what changed keep
// every refresh on the full path. A UMS behind ums.SourceFunc publishes a
// Full set on every pass, a policy source that copies on every read proves
// nothing; either alone is enough, and the published priorities verify
// against their from-scratch twin.
func TestLegacySourcesStayFull(t *testing.T) {
	p, err := policy.FromShares(map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(t0)
	totals := map[string]float64{"a": 1, "b": 2, "c": 3}
	m := ums.New(ums.Config{Clock: clock, Metrics: telemetry.NewRegistry()},
		ums.SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
			cp := map[string]float64{}
			for u, v := range totals {
				cp[u] = v
			}
			return cp, nil
		}))
	for _, tc := range []struct {
		name string
		pds  PolicySource
	}{{"immutable policy", pds.New(p, nil)}, {"plain policy", staticPDS{p}}} {
		name := tc.name
		svc := New(Config{Clock: clock, CacheTTL: -1, SynchronousRefresh: true,
			Metrics: telemetry.NewRegistry()}, tc.pds, m)
		for i := 0; i < 3; i++ {
			totals["b"] += float64(i)
			m.Invalidate()
			if err := svc.Refresh(); err != nil {
				t.Fatal(err)
			}
			if ri := svc.LastRefresh(); ri.Mode != RefreshFull || ri.UsageScale != 1 {
				t.Fatalf("%s, refresh %d: mode %q scale %v, want full in scale 1", name, i, ri.Mode, ri.UsageScale)
			}
			if err := svc.VerifySnapshot(); err != nil {
				t.Fatalf("%s, refresh %d: %v", name, i, err)
			}
		}
		lo, _ := svc.Priority("b")
		hi, _ := svc.Priority("a")
		if !(lo.Value < hi.Value) {
			t.Fatalf("%s: b (usage %v) has priority %v, a (usage 1) %v", name, totals["b"], lo.Value, hi.Value)
		}
	}
}

// TestSetProjectionKeepsIncrementalChain pins that a projection switch
// (which does not touch the tree) does not force the next refresh full.
func TestSetProjectionKeepsIncrementalChain(t *testing.T) {
	svc, _, ums, _ := newIncrementalFCS(t, nil)
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	svc.SetProjection(vector.Bitwise{})
	ums.apply(map[string]float64{"a": 12})
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ri := svc.LastRefresh(); ri.Mode != RefreshIncremental {
		t.Fatalf("mode after projection switch = %q, want incremental", ri.Mode)
	}
	if err := svc.VerifySnapshot(); err != nil {
		t.Fatal(err)
	}
}
