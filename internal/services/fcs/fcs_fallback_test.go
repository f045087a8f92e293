package fcs

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/services/pds"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// TestEngineErrorFallsBackToFullRecompute is the service-level phase-5
// walk-failure regression test: when the incremental engine rejects a delta
// (here because its tree shape was corrupted behind its back), the refresh
// must not publish the torn result — it falls back to refetching complete
// totals, rebuilds from scratch, re-anchors the engine, and the published
// snapshot verifies against its full-recompute twin.
func TestEngineErrorFallsBackToFullRecompute(t *testing.T) {
	t.Run("scripted deltas", func(t *testing.T) {
		ums := newDeltaUMS(map[string]float64{"a": 10, "b": 20, "c": 30, "d": 40})
		next := 100.0
		testEngineErrorFallback(t, ums, func(user string) {
			next++
			ums.apply(map[string]float64{user: next})
		})
	})
	// The same chain over the real pipeline under decay: sums at a
	// reference instant from the USS's change cursor, through the UMS.
	t.Run("uss under decay", func(t *testing.T) {
		rig := newUSSRig(t, "a", "b", "c", "d")
		testEngineErrorFallback(t, rig.ums, rig.bump)
	})
	// The re-fetch after the engine's refusal hits a transient UMS error:
	// it is retried like the first fetch, not turned into a failed refresh.
	t.Run("re-fetch fails once", func(t *testing.T) {
		ums := newDeltaUMS(map[string]float64{"a": 10, "b": 20, "c": 30, "d": 40})
		flaky := &flakyRefetch{UsageSource: ums}
		next := 100.0
		testEngineErrorFallback(t, flaky, func(user string) {
			next++
			ums.apply(map[string]float64{user: next})
		})
		if flaky.failed != 1 {
			t.Fatalf("re-fetch failed %d times, want the one scripted failure", flaky.failed)
		}
	})
}

// flakyRefetch fails the first complete-values pull (since=0) that follows
// a delta pull — the re-fetch of a refresh whose delta the engine refused.
type flakyRefetch struct {
	UsageSource
	sawDelta bool
	failed   int
}

func (f *flakyRefetch) UsageDeltas(since uint64) (usage.DeltaSet, error) {
	if since != 0 {
		f.sawDelta = true
	} else if f.sawDelta && f.failed == 0 {
		f.failed++
		return usage.DeltaSet{}, errors.New("ums briefly down")
	}
	return f.UsageSource.UsageDeltas(since)
}

// testEngineErrorFallback runs the fallback scenario; bump changes one
// user's usage at the source.
func testEngineErrorFallback(t *testing.T, ums UsageSource, bump func(user string)) {
	p := policy.NewTree()
	for _, g := range []struct {
		name  string
		share float64
		users []string
	}{
		{"g0", 2, []string{"a", "b"}},
		{"g1", 3, []string{"c", "d"}},
	} {
		if _, err := p.Add("", g.name, g.share); err != nil {
			t.Fatal(err)
		}
		for _, u := range g.users {
			if _, err := p.Add("/"+g.name, u, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := pds.New(p, nil)
	reg := telemetry.NewRegistry()
	svc := New(Config{Clock: simclock.NewSim(t0), CacheTTL: -1,
		SynchronousRefresh: true, Metrics: reg,
		SourceRetry: resilience.RetryPolicy{MaxAttempts: 2,
			Sleep: func(context.Context, time.Duration) error { return nil }},
	}, src, ums)

	// Anchor with a full refresh, then prove the incremental chain works.
	if err := svc.Refresh(); err != nil {
		t.Fatalf("anchor refresh: %v", err)
	}
	bump("a")
	if err := svc.Refresh(); err != nil {
		t.Fatalf("incremental refresh: %v", err)
	}
	if mode := svc.LastRefresh().Mode; mode != RefreshIncremental {
		t.Fatalf("pre-corruption refresh mode = %q, want incremental", mode)
	}
	// One dirty user in one of the two top-level groups: the engine rebuilt
	// that group's segment and re-published the other by pointer.
	if ri := svc.LastRefresh(); ri.MaterializedSegments != 1 || ri.SharedSegments != 1 {
		t.Fatalf("segments materialized/shared = %d/%d, want 1/1",
			ri.MaterializedSegments, ri.SharedSegments)
	}

	// Corrupt the engine's tree shape behind its back: drop leaf "b" from
	// g0, so the next Apply's phase-5 walk produces too few entries.
	// The engine is anchored on the tree it published.
	tree, err := svc.Tree()
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root
	g0 := root.Children[0]
	g0.Children = g0.Children[:1]

	bump("a")
	if err := svc.Refresh(); err != nil {
		t.Fatalf("refresh with corrupted engine: %v (want silent full fallback)", err)
	}
	ri := svc.LastRefresh()
	if ri.Mode != RefreshFull {
		t.Fatalf("post-corruption refresh mode = %q, want full fallback", ri.Mode)
	}
	if err := svc.LastRefreshError(); err != nil {
		t.Fatalf("fallback left a refresh error: %v", err)
	}
	if err := svc.VerifySnapshot(); err != nil {
		t.Fatalf("published snapshot does not match its full-recompute twin: %v", err)
	}
	// The dropped-then-rebuilt user serves again from the fresh snapshot.
	if _, err := svc.Priority("b"); err != nil {
		t.Fatalf("Priority(b) after fallback: %v", err)
	}

	// The fallback re-anchored the engine: the chain resumes incrementally.
	bump("b")
	if err := svc.Refresh(); err != nil {
		t.Fatalf("refresh after re-anchor: %v", err)
	}
	if mode := svc.LastRefresh().Mode; mode != RefreshIncremental {
		t.Fatalf("post-re-anchor refresh mode = %q, want incremental", mode)
	}
	if err := svc.VerifySnapshot(); err != nil {
		t.Fatalf("post-re-anchor snapshot: %v", err)
	}
}
