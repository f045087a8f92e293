package scenario

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/services/fcs"
	"repro/internal/usage"
)

// TestLedgerMatchesHistogram is the property behind the ledger-equivalence
// invariant: feeding the same completions through the O(n²) flat ledger and
// through the production histogram (completion-time attribution, decayed
// totals) yields the same per-user numbers, with and without decay.
func TestLedgerMatchesHistogram(t *testing.T) {
	decays := []struct {
		name string
		d    usage.Decay
	}{
		{"none", usage.None{}},
		{"exp", usage.ExponentialHalfLife{HalfLife: time.Hour}},
	}
	for _, tc := range decays {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			binWidth := 10 * time.Minute
			hist := usage.NewHistogram(binWidth)
			ledger := &Ledger{}
			users := []string{"ua", "ub", "uc"}
			for i := 0; i < 500; i++ {
				u := users[rng.Intn(len(users))]
				start := Start.Add(time.Duration(rng.Int63n(int64(8 * time.Hour))))
				dur := time.Duration(1+rng.Int63n(int64(45*time.Minute))) * 1
				procs := 1 + rng.Intn(4)
				// Production path: full usage attributed to the completion bin,
				// exactly like uss.ReportJob.
				hist.Add(u, start.Add(dur), dur.Seconds()*float64(procs))
				ledger.Add(LedgerRecord{Site: 0, User: u, Start: start, Dur: dur, Procs: procs})
			}
			now := Start.Add(9 * time.Hour)
			want := ledger.Totals(0, binWidth, now, tc.d)
			for _, u := range users {
				got := hist.DecayedTotal(u, now, tc.d)
				if !floatEq(got, want[u], 1e-6, 1e-9) {
					t.Errorf("user %s: histogram %.9g != ledger %.9g", u, got, want[u])
				}
			}
			// Records from a different site must not leak into site 0 totals.
			ledger.Add(LedgerRecord{Site: 1, User: "ua", Start: Start, Dur: time.Hour, Procs: 8})
			again := ledger.Totals(0, binWidth, now, tc.d)
			if !floatEq(again["ua"], want["ua"], 1e-12, 1e-12) {
				t.Errorf("foreign-site record leaked into site 0 totals: %.9g != %.9g", again["ua"], want["ua"])
			}
		})
	}
}

// TestDispatchOrderChecker exercises the checker on synthetic dispatch logs:
// clean priority-ordered passes stay silent, priority inversions and FIFO
// violations fire, and incremental consumption across calls works.
func TestDispatchOrderChecker(t *testing.T) {
	now := Start.Add(time.Hour)
	sub := func(m int) time.Time { return Start.Add(time.Duration(m) * time.Minute) }
	d := func(site int, pass uint64, prio float64, id int64, submit time.Time) Dispatch {
		return Dispatch{Site: site, Pass: pass, Priority: prio, JobID: id, Submit: submit}
	}

	t.Run("clean", func(t *testing.T) {
		h := &Harness{dispatches: []Dispatch{
			d(0, 1, 0.9, 1, sub(0)),
			d(0, 1, 0.5, 2, sub(1)),
			d(0, 1, 0.5, 3, sub(1)), // equal priority, equal submit, rising ID: fine
			d(1, 1, 0.2, 4, sub(2)), // other site: independent stream
			d(0, 2, 0.9, 5, sub(3)), // new pass resets the slope
		}}
		c := &DispatchOrderChecker{}
		if vs := c.Check(h, now); len(vs) != 0 {
			t.Fatalf("clean log flagged: %v", vs)
		}
	})

	t.Run("priority-inversion", func(t *testing.T) {
		h := &Harness{dispatches: []Dispatch{
			d(0, 1, 0.5, 1, sub(0)),
			d(0, 1, 0.9, 2, sub(1)), // rises within the pass
		}}
		c := &DispatchOrderChecker{}
		if vs := c.Check(h, now); len(vs) != 1 {
			t.Fatalf("want 1 violation, got %v", vs)
		}
	})

	t.Run("fifo-violation", func(t *testing.T) {
		h := &Harness{dispatches: []Dispatch{
			d(0, 1, 0.5, 2, sub(5)),
			d(0, 1, 0.5, 1, sub(0)), // same priority, earlier submit dispatched later
		}}
		c := &DispatchOrderChecker{}
		if vs := c.Check(h, now); len(vs) != 1 {
			t.Fatalf("want 1 violation, got %v", vs)
		}
	})

	t.Run("incremental", func(t *testing.T) {
		h := &Harness{dispatches: []Dispatch{d(0, 1, 0.5, 1, sub(0))}}
		c := &DispatchOrderChecker{}
		if vs := c.Check(h, now); len(vs) != 0 {
			t.Fatalf("first call flagged: %v", vs)
		}
		// The bad dispatch arrives after the first check; the cursor must
		// pick it up against the remembered predecessor.
		h.dispatches = append(h.dispatches, d(0, 1, 0.9, 2, sub(1)))
		if vs := c.Check(h, now); len(vs) != 1 {
			t.Fatalf("want 1 violation on second call, got %v", vs)
		}
		// Nothing new: silent.
		if vs := c.Check(h, now); len(vs) != 0 {
			t.Fatalf("third call flagged: %v", vs)
		}
	})
}

// TestFloatEq pins the combined absolute/relative tolerance helper.
func TestFloatEq(t *testing.T) {
	cases := []struct {
		a, b, abs, rel float64
		want           bool
	}{
		{1, 1, 0, 0, true},
		{1, 1 + 1e-12, 1e-9, 0, true},
		{1e9, 1e9 + 1, 0, 1e-6, true},
		{1e9, 1e9 + 1, 1e-9, 1e-12, false},
		{0, 1e-8, 1e-6, 0, true},
		{1, 2, 1e-9, 1e-9, false},
	}
	for i, tc := range cases {
		if got := floatEq(tc.a, tc.b, tc.abs, tc.rel); got != tc.want {
			t.Errorf("case %d: floatEq(%g,%g,%g,%g) = %v, want %v", i, tc.a, tc.b, tc.abs, tc.rel, got, tc.want)
		}
	}
}

// refreshModeRecorder samples each site's last FCS refresh mode at every
// check event — the probe that proves the incremental path actually ran
// during a scenario, not just that its snapshots were correct.
type refreshModeRecorder struct {
	modes map[string]int
}

// Name implements Checker.
func (*refreshModeRecorder) Name() string { return "refresh-mode-recorder" }

// Check implements Checker.
func (r *refreshModeRecorder) Check(h *Harness, now time.Time) []Violation {
	if r.modes == nil {
		r.modes = map[string]int{}
	}
	for _, s := range h.Sites {
		if ri := s.FCS.LastRefresh(); ri.Mode != "" {
			r.modes[ri.Mode]++
		}
	}
	return nil
}

// TestIncrementalSnapshotTwinUnderChurn drives a full multi-site scenario,
// under the default exponential decay and with decay off, across a mid-run
// share edit, and requires (a) the snapshot-twin invariant to hold at every
// check event — every published snapshot bit-identical to a full recompute
// over the same usage sums — and (b) the copy-on-write incremental engine to
// be what ran in steady state: the sites carry sums at a reference instant,
// so decay no longer makes every refresh a rebuild.
func TestIncrementalSnapshotTwinUnderChurn(t *testing.T) {
	for _, noDecay := range []bool{false, true} {
		noDecay := noDecay
		t.Run(fmt.Sprintf("noDecay=%v", noDecay), func(t *testing.T) {
			spec := Generate(7)
			spec.NoDecay = noDecay
			spec.Restarts = nil // bit-identical recovery is only defined without decay
			// Force a mid-run share edit so the refresh chain crosses a
			// policy version bump (a full-rebuild fallback) and must
			// re-anchor the incremental chain on the other side.
			u := spec.Users[0]
			path := u.Name
			if u.Project != "" {
				path = u.Project + "/" + u.Name
			}
			spec.Edits = append(spec.Edits, ShareEdit{At: spec.Duration / 2, Path: path, NewShare: u.Share * 1.5})

			rec := &refreshModeRecorder{}
			res, err := Run(spec, Options{Checkers: append(DefaultCheckers(), rec)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("violations:\n%v\n%s", res.Violations, res.TraceDump)
			}
			incr, full := rec.modes[fcs.RefreshIncremental], rec.modes[fcs.RefreshFull]
			if incr <= 4*full {
				t.Fatalf("incremental refreshes are not the steady state (modes sampled: %v)", rec.modes)
			}
			t.Logf("refresh modes sampled at check events: %v", rec.modes)
		})
	}
}

// TestConvergenceCoverage guards against generator drift silencing the
// convergence invariant: a healthy fraction of seeds must stay
// perturbation-free so the checker actually runs in the fuzz sweep.
func TestConvergenceCoverage(t *testing.T) {
	eligible := 0
	for seed := int64(1); seed <= 100; seed++ {
		if Generate(seed).ConvergenceEligible() {
			eligible++
		}
	}
	if eligible < 10 {
		t.Fatalf("only %d/100 seeds are convergence-eligible; the invariant is nearly dead", eligible)
	}
	t.Logf("%d/100 seeds convergence-eligible", eligible)
}
