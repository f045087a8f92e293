package ums

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simclock"
)

// The chain, overflow, majority and version cases run on cursorSource
// (deltasource_test.go), whose sums the test rewrites between pulls; values
// are in its scale of 0.5.

func TestUsageDeltasFirstPullIsFull(t *testing.T) {
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour},
		constSource(map[string]float64{"a": 10, "b": 5}))
	ds, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Full {
		t.Fatalf("first pull not Full: %+v", ds)
	}
	if ds.Version == 0 {
		t.Fatal("version watermark not assigned")
	}
	if ds.Totals["a"] != 10 || ds.Totals["b"] != 5 {
		t.Fatalf("totals = %v", ds.Totals)
	}
}

func TestUsageDeltasIncrementalChain(t *testing.T) {
	clock := simclock.NewSim(t0)
	src := newCursorSource(map[string]float64{"a": 10, "b": 5, "c": 2, "d": 1})
	s := New(Config{Clock: clock, CacheTTL: time.Hour}, src)

	first, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}

	// One of four users changes: within the half-population threshold.
	src.set("a", 12)
	s.Invalidate()
	ds, err := s.UsageDeltas(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Full {
		t.Fatalf("single-user change reported Full: %+v", ds)
	}
	if ds.Version != first.Version+1 {
		t.Fatalf("version = %d, want %d", ds.Version, first.Version+1)
	}
	if len(ds.Changed) != 1 || ds.Changed["a"] != 12 {
		t.Fatalf("changed = %v, want a:12 only", ds.Changed)
	}

	// Unchanged pull: same watermark, empty delta.
	again, err := s.UsageDeltas(ds.Version)
	if err != nil {
		t.Fatal(err)
	}
	if again.Full || len(again.Changed) != 0 || again.Version != ds.Version {
		t.Fatalf("no-op pull = %+v", again)
	}

	// Two more generations; a consumer two behind gets the merged delta.
	src.set("b", 6)
	s.Invalidate()
	if _, err := s.UsageDeltas(ds.Version); err != nil {
		t.Fatal(err)
	}
	src.set("c", 0) // user ages out entirely
	s.Invalidate()
	merged, err := s.UsageDeltas(ds.Version)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Full {
		t.Fatalf("merged delta reported Full: %+v", merged)
	}
	if len(merged.Changed) != 2 || merged.Changed["b"] != 6 || merged.Changed["c"] != 0 {
		t.Fatalf("merged changed = %v, want b:6 c:0", merged.Changed)
	}
}

func TestUsageDeltasMajorityChangeIsFullMarker(t *testing.T) {
	// Large enough for the dirty share to apply (see usage.DeltaPays).
	const n = 6000
	src := newCursorSource(map[string]float64{})
	for i := 0; i < n; i++ {
		src.sums[fmt.Sprintf("u%04d", i)] = 1
	}
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour}, src)
	first, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n/3; i++ { // past the half-population threshold
		src.set(fmt.Sprintf("u%04d", i), 10)
	}
	s.Invalidate()
	ds, err := s.UsageDeltas(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Full {
		t.Fatalf("majority change not Full: %d changed of %d", len(ds.Changed), n)
	}
	if ds.Totals["u0000"] != 10 || ds.Totals["u5999"] != 1 || len(ds.Totals) != n {
		t.Fatalf("totals: u0000=%v u5999=%v of %d", ds.Totals["u0000"], ds.Totals["u5999"], len(ds.Totals))
	}
}

func TestUsageDeltasLogOverflowFallsBackToFull(t *testing.T) {
	src := newCursorSource(map[string]float64{
		"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1, "g": 1, "h": 1, "i": 1, "j": 1,
	})
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour}, src)
	first, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	// More single-user generations than the log retains.
	for i := 0; i < maxDeltaGens+2; i++ {
		src.set("a", float64(100+i))
		s.Invalidate()
		if _, err := s.UsageDeltas(0); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := s.UsageDeltas(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Full {
		t.Fatalf("stale watermark served a delta past the log horizon: %+v", ds)
	}
	if ds.Totals["a"] != float64(100+maxDeltaGens+1) {
		t.Fatalf("totals = %v", ds.Totals)
	}
}

func TestUsageDeltasVersionStableWhenUnchanged(t *testing.T) {
	src := newCursorSource(map[string]float64{"a": 1})
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour}, src)
	first, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	// A pass that lists nobody: the watermark must not advance.
	s.Invalidate()
	ds, err := s.UsageDeltas(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Version != first.Version || ds.Full || len(ds.Changed) != 0 {
		t.Fatalf("identical recompute moved the watermark: %+v vs first %d", ds, first.Version)
	}
}

func TestUsageDeltasFutureWatermarkIsFull(t *testing.T) {
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour},
		constSource(map[string]float64{"a": 1}))
	ds, err := s.UsageDeltas(999)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Full {
		t.Fatalf("future watermark not Full: %+v", ds)
	}
}

func TestUsageDeltasAgreesWithUsageTotals(t *testing.T) {
	clock := simclock.NewSim(t0)
	src := newCursorSource(map[string]float64{})
	for i := 1; i <= 20; i++ {
		src.sums[fmt.Sprintf("u%02d", i)] = float64(i)
	}
	s := New(Config{Clock: clock, CacheTTL: time.Hour}, src)

	ds, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]float64{}
	for u, v := range ds.Totals {
		state[u] = v
	}
	ver := ds.Version
	for step := 0; step < 5; step++ {
		src.set(fmt.Sprintf("u%02d", step), float64(1000+step))
		s.Invalidate()
		ds, err := s.UsageDeltas(ver)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Full {
			for u := range state {
				delete(state, u)
			}
			for u, v := range ds.Totals {
				state[u] = v
			}
		} else {
			for u, v := range ds.Changed {
				if v == 0 {
					delete(state, u)
					continue
				}
				state[u] = v
			}
		}
		ver = ds.Version

		want, _, err := s.UsageTotals()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(state) {
			t.Fatalf("step %d: replayed %d users, totals has %d", step, len(state), len(want))
		}
		for u, v := range want {
			if state[u]*ds.Scale != v {
				t.Fatalf("step %d: user %s replayed %v × %v, totals %v", step, u, state[u], ds.Scale, v)
			}
		}
	}
}
