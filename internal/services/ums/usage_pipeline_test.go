package ums_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/usage"
)

// TestUsagePipelineScale drives the full usage-accounting pipeline — job
// reports into striped histograms, incremental inter-site exchange, the
// USS one-pass global merge and the UMS recompute — at a
// user count well past anything the scheduler tests reach, and checks the
// decayed totals against an independently maintained ledger.
func TestUsagePipelineScale(t *testing.T) {
	users := 2000
	rounds := 6
	if testing.Short() {
		users, rounds = 300, 3
	}
	const sites = 3
	halfLife := 24 * time.Hour
	decay := usage.ExponentialHalfLife{HalfLife: halfLife}
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(start)

	svcs := make([]*uss.Service, sites)
	for i := range svcs {
		svcs[i] = uss.New(uss.Config{
			Site:       fmt.Sprintf("site%d", i),
			BinWidth:   time.Hour,
			Contribute: true,
			Clock:      clock,
		})
	}
	for i, s := range svcs {
		for j, p := range svcs {
			if i != j {
				s.AddPeer(p)
			}
		}
	}
	monitor := ums.New(ums.Config{Decay: decay, Clock: clock},
		ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
			return svcs[0].GlobalTotals(now, d), nil
		}))

	// ledger[user][binStart] mirrors what every site reported, per bin
	// (completion-time attribution, like uss.ReportJob).
	ledger := map[string]map[int64]float64{}
	rng := rand.New(rand.NewSource(17))
	now := start
	for round := 0; round < rounds; round++ {
		for i := 0; i < users; i++ {
			user := fmt.Sprintf("u%05d", i)
			site := svcs[rng.Intn(sites)]
			// Completion times move forward with the clock: the incremental
			// exchange's soundness rests on completion-time attribution
			// (closed bins are immutable), so completions behind the
			// watermark would — by design — never transfer.
			end := now.Add(time.Duration(rng.Intn(55)) * time.Minute)
			dur := time.Duration(1+rng.Intn(180)) * time.Minute
			procs := 1 + rng.Intn(8)
			site.ReportJob(user, end.Add(-dur), dur, procs)

			binStart := end.Truncate(time.Hour).Unix()
			if ledger[user] == nil {
				ledger[user] = map[int64]float64{}
			}
			ledger[user][binStart] += dur.Seconds() * float64(procs)
		}
		for _, s := range svcs {
			if _, err := s.Exchange(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(2 * time.Hour)
		now = clock.Now()
		monitor.Invalidate()
		got, _, err := monitor.UsageTotals()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ledger) {
			t.Fatalf("round %d: %d users in totals, want %d", round, len(got), len(ledger))
		}
		// Spot-check a deterministic sample of users against the ledger.
		for i := 0; i < 50; i++ {
			user := fmt.Sprintf("u%05d", rng.Intn(users))
			var want float64
			for bin, v := range ledger[user] {
				age := now.Sub(time.Unix(bin, 0).Add(30 * time.Minute))
				if age < 0 {
					age = 0
				}
				want += v * math.Exp2(-float64(age)/float64(halfLife))
			}
			if g := got[user]; math.Abs(g-want) > 1e-9*math.Max(want, 1) {
				t.Fatalf("round %d: user %s = %g, want %g", round, user, g, want)
			}
		}
	}
}
