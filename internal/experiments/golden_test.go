package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

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
	{"figurePartial", func(t *testing.T, sc Scale) (*Report, error) {
		r, res, err := FigurePartial(sc)
		if err != nil {
			return r, err
		}
		if len(res.SitePriorities) != 2 {
			t.Fatalf("site priorities = %d", len(res.SitePriorities))
		}
		// The paper: the read-only site stays better aligned with full
		// participants than the local-only site (0.0000 vs 0.0228 here; with
		// two sites the read-only site is site 0 itself, so its side is 0,
		// and full scale gives 0.0021 vs 0.0280).
		full := res.SitePriorities[0][workload.U65]
		dReader := seriesMAD(full, res.SitePriorities[sc.Sites-2][workload.U65])
		dLocal := seriesMAD(full, res.SitePriorities[sc.Sites-1][workload.U65])
		if !(dReader < dLocal) {
			t.Errorf("mean |Δpriority| vs the full site: read-only %.4f, not below local-only %.4f", dReader, dLocal)
		}
		return r, err
	}},
	{"figure13", func(t *testing.T, sc Scale) (*Report, error) {
		r, res, err := Figure13Bursty(sc)
		if err != nil {
			return r, err
		}
		// The observed U3 maximum must stay within the theoretical limit.
		p := res.Priorities[workload.U3]
		if p == nil {
			t.Fatal("no U3 priorities")
		}
		for _, v := range p.Values {
			if v > 0.56+1e-9 {
				t.Fatalf("U3 priority %g exceeds the 0.56 bound", v)
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
	{"ablationDispatch", func(t *testing.T, sc Scale) (*Report, error) { return AblationDispatch(sc) }},
	{"ablationRM", func(t *testing.T, sc Scale) (*Report, error) { return AblationRM(sc) }},
	{"ablationHierarchy", func(t *testing.T, sc Scale) (*Report, error) { return AblationHierarchy(sc) }},
	{"ablationBackfill", func(t *testing.T, sc Scale) (*Report, error) { return AblationBackfill(sc) }},
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
