package experiments

import (
	"strconv"
	"testing"
)

func TestAblationHierarchy(t *testing.T) {
	t.Parallel()
	r, err := AblationHierarchy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// VO shares must sum to ~1 on every sampled row once work is flowing.
	for _, row := range r.Rows[3:] {
		a, err1 := strconv.ParseFloat(row[1], 64)
		b, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if sum := a + b; sum > 1.001 {
			t.Errorf("VO shares sum to %g at minute %s", sum, row[0])
		}
	}
}

func TestAblationBackfill(t *testing.T) {
	t.Parallel()
	r, err := AblationBackfill(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want strict + backfill", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[0] != "strict" && row[0] != "backfill" {
			t.Errorf("mode = %q", row[0])
		}
		util, err := strconv.ParseFloat(row[1], 64)
		if err != nil || util <= 0.3 {
			t.Errorf("utilization = %v (%v)", row[1], err)
		}
	}
}
