package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/workload"
)

// updateGolden regenerates the committed snapshots instead of diffing
// against them: go test ./internal/experiments -run TestGoldenReports -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenReports lists every report that runs on the simulated clock. Each
// renders to a pure function of the scale and seed, so its text at tiny()
// scale is pinned byte for byte in testdata/<report id>.golden: any drift in
// the scheduler, the usage pipeline, the fairshare math, the simulation
// driver or the renderer shows up as a diff. A run's own assertions ride in
// the same entry, so each report is run once.
var goldenReports = []struct {
	id  string
	run func(t *testing.T, sc Scale) (*Report, error)
}{
	{"figure10", func(t *testing.T, sc Scale) (*Report, error) {
		r, res, err := Figure10Baseline(sc)
		if err == nil && res.Utilization <= 0.3 {
			t.Errorf("utilization = %.3f", res.Utilization)
		}
		return r, err
	}},
	{"figure11", func(t *testing.T, sc Scale) (*Report, error) { return Figure11UpdateDelay(sc) }},
	{"figure12", func(t *testing.T, sc Scale) (*Report, error) {
		r, _, err := Figure12NonOptimalPolicy(sc)
		return r, err
	}},
	// The paper: the read-only site stays better aligned with full
	// participants than the local-only site. With tiny()'s two sites the
	// read-only site is site 0 itself, so its side is 0 (against 0.0228);
	// with three there is a full site apart from both (0.0184 against
	// 0.0431). Full scale gives 0.0021 against 0.0280.
	{"figurePartial", partialGolden(2)},
	{"figurePartial3", partialGolden(3)},
	{"figure13", func(t *testing.T, sc Scale) (*Report, error) {
		r, res, err := Figure13Bursty(sc)
		if err != nil {
			return r, err
		}
		// The observed U3 maximum must stay within the theoretical limit,
		// 0.5·(1+0.12) = 0.56 for U3's target share under the default k.
		p := res.Priorities[workload.U3]
		if p == nil {
			t.Fatal("no U3 priorities")
		}
		bound := fairshare.MaxPriority(fairshare.DefaultConfig(), 0.12)
		for _, v := range p.Values {
			if v > bound+1e-9 {
				t.Fatalf("U3 priority %g exceeds the %g bound", v, bound)
			}
		}
		return r, err
	}},
	{"production", func(t *testing.T, sc Scale) (*Report, error) { return ProductionStats(sc) }},
	{"ablationProjection", func(t *testing.T, sc Scale) (*Report, error) { return AblationProjection(sc) }},
	{"ablationDistanceWeight", func(t *testing.T, sc Scale) (*Report, error) { return AblationDistanceWeight(sc) }},
	{"ablationDecay", func(t *testing.T, sc Scale) (*Report, error) { return AblationDecay(sc) }},
	{"ablationCacheTTL", func(t *testing.T, sc Scale) (*Report, error) {
		r, err := AblationCacheTTL(sc)
		if err != nil {
			return r, err
		}
		// The paper: a shorter update delay converges faster. Share MAE
		// must not fall as the interval grows.
		prev := 0.0
		for _, row := range r.Rows {
			mae, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
			if mae < prev {
				t.Errorf("share MAE %v at %s is below %v at the shorter interval before it", mae, row[0], prev)
			}
			prev = mae
		}
		return r, err
	}},
	{"ablationDispatch", func(t *testing.T, sc Scale) (*Report, error) {
		r, err := AblationDispatch(sc)
		if err != nil {
			return r, err
		}
		// The paper: no noticeable difference between the strategies. The
		// two share MAEs differ by at most a tenth of the smaller one
		// (0.0017 against 0.0522 here, 3.3 %).
		var maes []float64
		for _, row := range r.Rows {
			mae, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
			maes = append(maes, mae)
		}
		if len(maes) != 2 {
			t.Fatalf("%d dispatchers, want 2", len(maes))
		}
		if d, lo := math.Abs(maes[0]-maes[1]), min(maes[0], maes[1]); d > 0.1*lo {
			t.Errorf("|Δ share MAE| = %.4f between the dispatchers, more than 10%% of %.4f", d, lo)
		}
		return r, err
	}},
	{"ablationRM", func(t *testing.T, sc Scale) (*Report, error) { return AblationRM(sc) }},
	{"ablationHierarchy", func(t *testing.T, sc Scale) (*Report, error) { return AblationHierarchy(sc) }},
	{"ablationBackfill", func(t *testing.T, sc Scale) (*Report, error) { return AblationBackfill(sc) }},
}

// partialGolden runs FigurePartial over the given number of sites and
// asserts that the read-only site's mean |Δpriority| from the full site is
// below the local-only site's. Its report keeps FigurePartial's text under
// an id that names the site count when it is not tiny()'s two, so each run
// has its own golden.
func partialGolden(sites int) func(t *testing.T, sc Scale) (*Report, error) {
	return func(t *testing.T, sc Scale) (*Report, error) {
		sc.Sites = sites
		r, res, err := FigurePartial(sc)
		if err != nil {
			return r, err
		}
		if len(res.SitePriorities) != sites {
			t.Fatalf("site priorities = %d, want %d", len(res.SitePriorities), sites)
		}
		full := res.SitePriorities[0][workload.U65]
		dReader := seriesMAD(full, res.SitePriorities[sites-2][workload.U65])
		dLocal := seriesMAD(full, res.SitePriorities[sites-1][workload.U65])
		if !(dReader < dLocal) {
			t.Errorf("mean |Δpriority| vs the full site: read-only %.4f, not below local-only %.4f", dReader, dLocal)
		}
		if sites != 2 {
			r.ID += strconv.Itoa(sites)
		}
		return r, err
	}
}

// TestGoldenReports is the byte-exact regression gate on every sim-clock
// report — the tiny-scale twin of the committed full-scale results. The
// runs share no state, so they run in parallel.
func TestGoldenReports(t *testing.T) {
	t.Parallel()
	for _, g := range goldenReports {
		g := g
		t.Run(g.id, func(t *testing.T) {
			t.Parallel()
			r, err := g.run(t, tiny())
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) == 0 {
				t.Error("no rows")
			}
			if r.ID != g.id {
				t.Errorf("report id = %q, want %q", r.ID, g.id)
			}
			var buf bytes.Buffer
			if err := r.Render(&buf); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()

			path := filepath.Join("testdata", g.id+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from its golden snapshot.\n--- got ---\n%s--- want ---\n%s(regenerate with -update if the change is intended)", g.id, got, want)
			}
		})
	}
}
