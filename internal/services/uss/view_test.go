package uss

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/usage"
)

// TestViewDeltasFollowTheFederation runs three peered sites through rounds
// of a few completions, exchanges (which re-pull the open and the previous
// bin every time) and clock steps under the default 7-day half-life, and
// follows site b's global view through its change cursor: every pass after
// the first is sparse, the accumulated deltas equal a fresh Sums bit for
// bit, value × scale matches GlobalTotals, and probing reads in between
// consume nothing.
func TestViewDeltasFollowTheFederation(t *testing.T) {
	d := usage.ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	clock := simclock.NewSim(t0)
	sites := map[string]*Service{}
	for _, name := range []string{"a", "b", "c"} {
		sites[name] = New(Config{Site: name, BinWidth: time.Hour, Contribute: true, Clock: clock})
	}
	for n, s := range sites {
		for m, p := range sites {
			if n != m {
				s.AddPeer(p)
			}
		}
	}
	exchangeAll := func() {
		for _, name := range []string{"a", "b", "c"} {
			if _, err := sites[name].Exchange(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	const users = 300
	for day := 5; day > 0; day-- { // history, exchanged slice by slice
		for _, s := range sites {
			for u := 0; u < users; u++ {
				start := clock.Now().Add(-time.Duration(day)*24*time.Hour + time.Duration(rng.Intn(20*60))*time.Minute)
				s.ReportJob(fmt.Sprintf("u%03d", u), start, time.Duration(1+rng.Intn(90))*time.Minute, 1+rng.Intn(4))
			}
		}
		exchangeAll()
	}

	b := sites["b"]
	view := b.View(true)
	first, err := view.Changes(clock.Now(), d)
	if err != nil || !first.Full {
		t.Fatalf("first pass = %+v (err %v), want Full", first, err)
	}
	full, ok := view.Sums(clock.Now())
	if !ok || len(full.Totals) != users {
		t.Fatalf("Sums after the first pass: %d users (ok %v)", len(full.Totals), ok)
	}
	acc := map[string]float64{}
	for u, v := range full.Totals {
		acc[u] = v
	}

	for round := 0; round < 80; round++ {
		clock.Advance(time.Minute)
		now := clock.Now()
		for _, name := range []string{"a", "c", "b"}[:1+round%3] {
			u := fmt.Sprintf("u%03d", rng.Intn(users))
			sites[name].ReportJob(u, now.Add(-30*time.Minute), 30*time.Minute, 2)
		}
		exchangeAll()
		if round%5 == 0 { // what the bench's probes and /usage/tree do
			b.GlobalTotals(now, d)
			b.LocalTotals(now, d)
		}
		ds, _ := view.Changes(now, d)
		if ds.Full {
			t.Fatalf("round %d: Full under the default half-life", round)
		}
		// At most three completions a round, and nothing rides along:
		// a user touched in the open bin is listed when touched, not again
		// on every pass of the bin's first half.
		if len(ds.Changed) > 1+round%3 {
			t.Fatalf("round %d: %d users changed", round, len(ds.Changed))
		}
		for u, v := range ds.Changed {
			acc[u] = v
		}
		fresh, ok := view.Sums(now)
		if !ok {
			t.Fatalf("round %d: Sums refused", round)
		}
		global := b.GlobalTotals(now, d)
		for u, want := range fresh.Totals {
			if math.Float64bits(acc[u]) != math.Float64bits(want) {
				t.Fatalf("round %d: %s accumulated %v, fresh Sums %v", round, u, acc[u], want)
			}
			if got, ref := want*fresh.Scale, global[u]; math.Abs(got-ref) > 1e-9*ref {
				t.Fatalf("round %d: %s sum×scale %v, GlobalTotals %v", round, u, got, ref)
			}
		}
		if fresh.Scale != ds.Scale || !fresh.Reference.Equal(ds.Reference) || !ds.Reference.Equal(t0) {
			t.Fatalf("round %d: scale/reference moved: %v@%v vs %v@%v", round, ds.Scale, ds.Reference, fresh.Scale, fresh.Reference)
		}
	}
	// `now` passing the open bin's midpoint lists nobody: the clock alone
	// never changes a sum.
	for _, step := range []time.Duration{15 * time.Minute, time.Minute} {
		clock.Advance(step)
		exchangeAll()
		if ds, _ := view.Changes(clock.Now(), d); ds.Full || len(ds.Changed) != 0 {
			t.Fatalf("quiet round %v on listed %d users (full %v)", step, len(ds.Changed), ds.Full)
		}
	}

	// A new mirror (first exchange with a fourth site) cannot be expressed
	// as a delta: Sums refuses, the next pass is Full.
	e := New(Config{Site: "e", BinWidth: time.Hour, Contribute: true, Clock: clock})
	e.ReportJob("u000", clock.Now().Add(-time.Hour), time.Hour, 1)
	b.AddPeer(e)
	if _, err := b.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := view.Sums(clock.Now()); ok {
		t.Error("Sums served over a mirror the cursor has not seen")
	}
	if ds, _ := view.Changes(clock.Now(), d); !ds.Full {
		t.Error("pass over a new mirror was not Full")
	}
}

// TestViewLocalIgnoresRemoteUsage: the local view's cursor does not see
// exchanged usage.
func TestViewLocalIgnoresRemoteUsage(t *testing.T) {
	a, b := newUSS("a", true), newUSS("b", true)
	b.AddPeer(a)
	b.ReportJob("bob", t0.Add(-2*time.Hour), time.Hour, 1)
	view := b.View(false)
	view.Changes(t0, usage.None{})
	a.ReportJob("alice", t0.Add(-2*time.Hour), time.Hour, 1)
	if _, err := b.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ds, _ := view.Changes(t0.Add(time.Minute), usage.None{}); ds.Full || len(ds.Changed) != 0 {
		t.Fatalf("local view saw remote usage: %+v", ds)
	}
	b.ReportJob("bob", t0.Add(-time.Hour), time.Hour, 1)
	ds, _ := view.Changes(t0.Add(2*time.Minute), usage.None{})
	if ds.Full || len(ds.Changed) != 1 || ds.Changed["bob"] != 7200 || ds.Scale != 1 {
		t.Fatalf("local change = %+v", ds)
	}
}
