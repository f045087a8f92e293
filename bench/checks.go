package main

// Output checks. A benchmark that does not verify what the system computed
// measures how fast it can be wrong; every check here counts as one
// attempted operation and, when it does not hold, as one failed one.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/durability"
	"repro/internal/usage"
)

// finalChecks quiesces the federation (two exchange passes so every site
// has seen every other's last bins, then one refresh per site at the same
// instant) and verifies the end state.
func (r *runner) finalChecks() {
	f := r.fed
	if len(f.stacks) > 1 {
		for pass := 0; pass < 2; pass++ {
			r.check(r.exchangeAll(), "quiesce exchange")
		}
	}
	for _, st := range f.stacks {
		r.check(st.site.Refresh(), st.name+" quiesce refresh")
	}

	// Every published snapshot equals a from-scratch recomputation.
	for _, st := range f.stacks {
		r.check(st.site.FCS.VerifySnapshot(), st.name+" snapshot")
	}

	// Every site accounts for exactly what the generator had accepted there.
	// Core-seconds are integers well below 2^53, so the sums are exact.
	for _, st := range f.stacks {
		sum := 0.0
		for _, rec := range st.site.USS.LocalRecords() {
			sum += rec.CoreSeconds
		}
		r.attempt()
		if sum != st.ledgerCoreSeconds {
			r.fail("%s holds %.0f core-seconds, generator's ledger of %d accepted completions says %.0f",
				st.name, sum, st.ledgerJobs, st.ledgerCoreSeconds)
		}
	}

	// All sites now see the same global usage, so they must agree on every
	// user's priority. Sites sum the same floats in different orders, hence
	// a tolerance; on the real clock the refresh instants differ by
	// milliseconds of decay as well.
	if len(f.stacks) > 1 {
		tol := 1e-9
		if f.sim == nil {
			tol = 1e-6
		}
		r.check(r.prioritiesAgree(tol), "cross-site priorities")
	}
}

func (r *runner) prioritiesAgree(tol float64) error {
	ref, err := r.fed.stacks[0].site.FCS.Table()
	if err != nil {
		return err
	}
	for _, st := range r.fed.stacks[1:] {
		tab, err := st.site.FCS.Table()
		if err != nil {
			return err
		}
		if len(tab.Entries) != len(ref.Entries) {
			return fmt.Errorf("%s has %d users, site0 has %d", st.name, len(tab.Entries), len(ref.Entries))
		}
		for i, e := range tab.Entries {
			if w := ref.Entries[i]; e.User != w.User || math.Abs(e.Value-w.Value) > tol {
				return fmt.Errorf("%s: %s has priority %v, site0 says %s %v", st.name, e.User, e.Value, w.User, w.Value)
			}
		}
	}
	return nil
}

// recoveryCycles closes site0's log and reopens its data dir sp.reopens
// times the way aequusd restarts, requiring every recovered state to be
// bit-identical to the pre-crash one. Returns the cycle times in seconds.
func (r *runner) recoveryCycles() []float64 {
	st := r.fed.stacks[0]
	want := st.site.USS.CaptureState()
	if !r.check(st.log.Close(), "closing site0's log") {
		return nil
	}
	var out []float64
	for i := 0; i < r.sp.reopens; i++ {
		t0 := time.Now()
		site, log, err := reopen(st, r.fed.pol, r.fed.clock)
		d := time.Since(t0)
		if !r.check(err, "recovery") {
			continue
		}
		out = append(out, d.Seconds())
		r.check(sameState(want, site.USS.CaptureState()), "recovered state")
		r.check(log.Close(), "closing recovered log")
	}
	return out
}

// sameState compares two durable images bit for bit.
func sameState(want, got *durability.SnapshotState) error {
	if err := sameRecords("local", want.Local, got.Local); err != nil {
		return err
	}
	if len(want.Remote) != len(got.Remote) {
		return fmt.Errorf("%d remote sites, want %d", len(got.Remote), len(want.Remote))
	}
	for peer, recs := range want.Remote {
		if err := sameRecords(peer, recs, got.Remote[peer]); err != nil {
			return err
		}
		if !want.Watermark[peer].Equal(got.Watermark[peer]) {
			return fmt.Errorf("%s watermark %v, want %v", peer, got.Watermark[peer], want.Watermark[peer])
		}
	}
	return nil
}

func sameRecords(what string, want, got []usage.Record) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.User != w.User || !g.IntervalStart.Equal(w.IntervalStart) ||
			math.Float64bits(g.CoreSeconds) != math.Float64bits(w.CoreSeconds) {
			return fmt.Errorf("%s: record %d is %+v, want %+v", what, i, g, w)
		}
	}
	return nil
}
