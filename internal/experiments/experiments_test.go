package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	sc := QuickScale()
	sc.Jobs = 1500
	sc.Sites = 2
	sc.Cores = 12
	sc.Duration = 2 * 60 * 60 * 1e9 // 2h
	sc.HistoricalJobs = 3000
	sc.FitSample = 300
	return sc
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"A", "B"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "A", "1", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableIPropertyMatrix(t *testing.T) {
	r, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	byName := map[string][]string{}
	for _, row := range r.Rows {
		byName[row[0]] = row
	}
	// Vectors: everything but combinable.
	v := byName["Fairshare vectors"]
	if v[1] != "✓" || v[2] != "✓" || v[3] != "✓" || v[4] != "✓" || v[5] != "×" {
		t.Errorf("vectors row = %v", v)
	}
	// Dictionary keeps depth/precision/isolation, loses proportionality.
	d := byName["Dictionary Ordering"]
	if d[1] != "✓" || d[2] != "✓" || d[3] != "✓" || d[4] != "×" || d[5] != "✓" {
		t.Errorf("dictionary row = %v", d)
	}
	// Bitwise loses depth and precision, keeps isolation.
	b := byName["Bitwise Vector"]
	if b[1] != "×" || b[2] != "×" || b[3] != "✓" || b[5] != "✓" {
		t.Errorf("bitwise row = %v", b)
	}
	// Percental keeps depth/precision/proportionality, loses isolation.
	p := byName["Percental"]
	if p[1] != "✓" || p[2] != "✓" || p[3] != "×" || p[4] != "✓" || p[5] != "✓" {
		t.Errorf("percental row = %v", p)
	}
}

func TestHistoricalTraceCleaning(t *testing.T) {
	sc := tiny()
	_, rep, err := CleanedTrace(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~15% of jobs and ~1.5% of usage removed.
	if rep.JobFraction < 0.10 || rep.JobFraction > 0.20 {
		t.Errorf("removed job fraction = %.3f, want ~0.15", rep.JobFraction)
	}
	if rep.UsageFraction < 0.001 || rep.UsageFraction > 0.05 {
		t.Errorf("removed usage fraction = %.4f, want ~0.015", rep.UsageFraction)
	}
}

func TestTableIIShape(t *testing.T) {
	t.Parallel()
	sc := tiny()
	r, err := TableII(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 4 phases + composite + 3 users = 8 rows.
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != 4 {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	t.Parallel()
	r, err := TableIII(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
}

func TestFigures4to7(t *testing.T) {
	t.Parallel()
	sc := tiny()
	for name, f := range map[string]func(Scale) (*Report, error){
		"figure4": Figure4, "figure5": Figure5, "figure6": Figure6, "figure7": Figure7,
	} {
		r, err := f(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Errorf("%s render: %v", name, err)
		}
	}
}

func TestScalesSane(t *testing.T) {
	full, quick := FullScale(), QuickScale()
	if full.Jobs != 43200 || full.Sites != 6 || full.Cores != 40 {
		t.Errorf("full scale = %+v", full)
	}
	if quick.Jobs >= full.Jobs {
		t.Error("quick scale not smaller")
	}
}
