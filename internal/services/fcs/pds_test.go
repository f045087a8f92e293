package fcs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/services/pds"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// grid is the national subtree a site mounts: users a and b.
func grid(shareA float64) *policy.Tree {
	return &policy.Tree{Root: &policy.Node{Children: []*policy.Node{{Name: "a", Share: shareA}, {Name: "b", Share: 1}}}}
}

// TestIdleMountRefreshStaysIncremental: a mount refresh that fetches the
// subtree already mounted leaves the PDS's tree as it was, so the next FCS
// refresh stays incremental instead of rebuilding every user; a changed
// origin gives a full refresh that serves the new shares.
func TestIdleMountRefreshStaysIncremental(t *testing.T) {
	shareA := 1.0
	local, err := policy.FromShares(map[string]float64{"c": 1})
	if err != nil {
		t.Fatal(err)
	}
	p := pds.New(local, func(string) (*policy.Tree, error) { return grid(shareA), nil })
	if err := p.Mount("", "grid", 1, "national"); err != nil {
		t.Fatal(err)
	}
	ums := newDeltaUMS(map[string]float64{"a": 10, "b": 20, "c": 30})
	svc := New(Config{Clock: simclock.NewSim(t0), CacheTTL: -1, SynchronousRefresh: true,
		Metrics: telemetry.NewRegistry()}, p, ums)
	refresh := func(step, mode string) {
		t.Helper()
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := svc.LastRefresh().Mode; got != mode {
			t.Fatalf("%s: mode %q, want %q", step, got, mode)
		}
		if err := svc.VerifySnapshot(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	refresh("cold start", RefreshFull)

	before := p.Policy()
	if err := p.RefreshMounts(); err != nil {
		t.Fatal(err)
	}
	if p.Policy() != before {
		t.Fatal("a mount refresh that fetched an unchanged subtree replaced the policy")
	}
	ums.apply(map[string]float64{"a": 11})
	refresh("idle mount refresh", RefreshIncremental)

	shareA = 3
	if err := p.RefreshMounts(); err != nil {
		t.Fatal(err)
	}
	refresh("changed origin", RefreshFull)
	tree, _ := svc.Tree()
	var a fairshare.Member
	tree.Walk(func(path string, _ float64, members []fairshare.Member) {
		for _, m := range members {
			if path == "/grid" && m.Name == "a" {
				a = m
			}
		}
	})
	if a.Name != "a" || a.Share != 0.75 {
		t.Fatalf("after the origin changed /grid/a serves %+v, want share 0.75", a)
	}
}

// TestRefreshBesideConcurrentPolicyEdits runs refreshes, each checked
// against its from-scratch twin, while other goroutines mount, refresh
// mounts and replace the policy. A snapshot keeps the tree it was computed
// from without a copy, so an edit that wrote into a published tree would
// show as a twin mismatch here, or as a race under -race.
func TestRefreshBesideConcurrentPolicyEdits(t *testing.T) {
	base, err := policy.FromShares(map[string]float64{"c": 1, "d": 2})
	if err != nil {
		t.Fatal(err)
	}
	var shareA atomic.Int64
	shareA.Store(1)
	p := pds.New(base, func(string) (*policy.Tree, error) { return grid(float64(shareA.Load())), nil })
	ums := newDeltaUMS(map[string]float64{"a": 10, "b": 20, "c": 30, "d": 40})
	svc := New(Config{Clock: simclock.NewSim(t0), CacheTTL: -1, SynchronousRefresh: true,
		Metrics: telemetry.NewRegistry()}, p, ums)

	const rounds = 200
	var wg sync.WaitGroup
	edits := []func(i int) error{
		func(i int) error { return p.Mount("", fmt.Sprintf("grid%d", i), 1, "national") },
		func(i int) error { shareA.Store(int64(1 + i%3)); return p.RefreshMounts() },
		func(i int) error {
			if i%20 != 0 {
				return nil
			}
			return p.SetPolicy(base)
		},
	}
	for _, edit := range edits {
		edit := edit
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := edit(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		ums.apply(map[string]float64{"c": float64(30 + i)})
		err := svc.Refresh()
		if err == nil {
			err = svc.VerifySnapshot()
		}
		if err != nil {
			t.Errorf("refresh %d: %v", i, err)
			<-done
			return
		}
	}
}
