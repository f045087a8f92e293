package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestFigure11UpdateDelay(t *testing.T) {
	t.Parallel()
	sc := tiny()
	sc.Jobs = 800
	r, err := Figure11UpdateDelay(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The scaled run must never converge later or track worse than the
	// baseline (shorter relative delays can only help).
	for _, row := range r.Rows {
		imp, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("unparseable improvement %q", row[3])
		}
		if imp < -0.05 {
			t.Errorf("%s: scaled run notably worse (improvement %g)", row[0], imp)
		}
	}
}

func TestFigure12NonOptimalPolicy(t *testing.T) {
	t.Parallel()
	r, res, err := Figure12NonOptimalPolicy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || res.Completed == 0 {
		t.Fatal("empty result")
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "70/20/8/2") || strings.Contains(n, "0.700") {
			found = true
		}
	}
	if !found {
		t.Error("non-optimal targets not reported")
	}
}

func TestProductionStats(t *testing.T) {
	t.Parallel()
	sc := tiny()
	sc.Jobs = 2000
	r, err := ProductionStats(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0] != "jobs/month" {
		t.Errorf("first row = %v", r.Rows[0])
	}
	completed, err := strconv.ParseFloat(r.Rows[0][1], 64)
	if err != nil || completed < float64(sc.Jobs)*0.8 {
		t.Errorf("jobs/month = %v (%v)", r.Rows[0][1], err)
	}
}

func TestAllQuickPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline smoke skipped in -short mode")
	}
	t.Parallel()
	sc := tiny()
	sc.Jobs = 600
	sc.HistoricalJobs = 2000
	sc.FitSample = 200
	reports, err := All(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Paper order: tables I-III, periodicity, figures 4-7, 10-13 + partial,
	// production.
	if len(reports) != 14 {
		t.Fatalf("reports = %d, want 14", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if seen[r.ID] {
			t.Errorf("duplicate report %s", r.ID)
		}
		seen[r.ID] = true
	}
	for _, id := range []string{"tableI", "tableII", "periodicity", "figure10", "figure13", "production"} {
		if !seen[id] {
			t.Errorf("missing report %s", id)
		}
	}
}

// TestPaperScale runs full-scale Figure 10: 6 clusters of 40 virtual hosts
// (240 total, ~10% of the national grid), 43,200 jobs over a six-hour test,
// 95% offered load, under every invariant checker (a violation fails the
// run). The paper reports total utilization between 93% and 97% and a
// sustained submission rate of about 120 jobs per minute.
func TestPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	t.Parallel()
	_, res, err := Figure10Baseline(FullScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 43200 {
		t.Errorf("submitted = %d, want 43200", res.Submitted)
	}
	if res.Utilization < 0.90 || res.Utilization > 0.99 {
		t.Errorf("utilization = %.3f, want in the paper's 93-97%% neighbourhood", res.Utilization)
	}
	if res.SustainedRate < 110 || res.SustainedRate > 130 {
		t.Errorf("sustained rate = %.1f jobs/min, want ~120", res.SustainedRate)
	}
	if res.Completed < res.Submitted*95/100 {
		t.Errorf("completed = %d of %d", res.Completed, res.Submitted)
	}
}
