package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/trace"
)

var start = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)

const year = 365 * 24 * time.Hour

func TestNationalGrid2012Validates(t *testing.T) {
	if err := NationalGrid2012(year).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Bursty2012(6 * time.Hour).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	if err := (Model{}).Validate(); err == nil {
		t.Error("empty model accepted")
	}
	m := NationalGrid2012(year)
	m.Users[0].JobFraction = 0.5 // breaks the sum
	if err := m.Validate(); err == nil {
		t.Error("bad job fractions accepted")
	}
	m2 := NationalGrid2012(year)
	m2.Users[0].Arrival = nil
	if err := m2.Validate(); err == nil {
		t.Error("missing distribution accepted")
	}
	m3 := NationalGrid2012(year)
	m3.Users[0].Name = ""
	if err := m3.Validate(); err == nil {
		t.Error("empty name accepted")
	}
}

func TestGenerateJobFractions(t *testing.T) {
	m := NationalGrid2012(year)
	tr, err := m.Generate(GenerateOptions{
		TotalJobs: 20000, Start: start, Span: year, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 20000 {
		t.Fatalf("generated %d jobs, want 20000", tr.Len())
	}
	js := trace.JobShares(tr)
	want := map[string]float64{U65: 0.8103, U30: 0.0658, U3: 0.0947, UOth: 0.0292}
	for u, w := range want {
		if math.Abs(js[u]-w) > 0.001 {
			t.Errorf("%s job share = %.4f, want %.4f", u, js[u], w)
		}
	}
}

func TestGenerateCalibratedUsageShares(t *testing.T) {
	m := NationalGrid2012(year)
	tr, err := m.Generate(GenerateOptions{
		TotalJobs: 20000, Start: start, Span: year, Seed: 2,
		CalibrateUsage: true, MaxDuration: 30 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	us := trace.UsageShares(tr)
	want := m.UsageFractions()
	for u, w := range want {
		if math.Abs(us[u]-w) > 0.01 {
			t.Errorf("%s usage share = %.4f, want %.4f", u, us[u], w)
		}
	}
}

func TestGenerateArrivalsInsideSpan(t *testing.T) {
	m := NationalGrid2012(year)
	tr, err := m.Generate(GenerateOptions{
		TotalJobs: 5000, Start: start, Span: year, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := start.Add(year)
	for _, j := range tr.Jobs {
		if j.Submit.Before(start) || j.Submit.After(end) {
			t.Fatalf("job %d submits at %v, outside [%v, %v]", j.ID, j.Submit, start, end)
		}
		if j.Duration < time.Second {
			t.Fatalf("job %d has duration %v", j.ID, j.Duration)
		}
	}
}

func TestGenerateSortedAndNumbered(t *testing.T) {
	m := NationalGrid2012(year)
	tr, _ := m.Generate(GenerateOptions{TotalJobs: 1000, Start: start, Span: year, Seed: 4})
	for i := 1; i < tr.Len(); i++ {
		if tr.Jobs[i].Submit.Before(tr.Jobs[i-1].Submit) {
			t.Fatal("jobs not sorted by submit time")
		}
		if tr.Jobs[i].ID != int64(i+1) {
			t.Fatalf("job %d has ID %d", i, tr.Jobs[i].ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := NationalGrid2012(year)
	a, _ := m.Generate(GenerateOptions{TotalJobs: 500, Start: start, Span: year, Seed: 7})
	b, _ := m.Generate(GenerateOptions{TotalJobs: 500, Start: start, Span: year, Seed: 7})
	for i := range a.Jobs {
		if !a.Jobs[i].Submit.Equal(b.Jobs[i].Submit) || a.Jobs[i].Duration != b.Jobs[i].Duration {
			t.Fatal("same seed produced different traces")
		}
	}
	c, _ := m.Generate(GenerateOptions{TotalJobs: 500, Start: start, Span: year, Seed: 8})
	same := true
	for i := range a.Jobs {
		if !a.Jobs[i].Submit.Equal(c.Jobs[i].Submit) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateRejectsBadOptions(t *testing.T) {
	m := NationalGrid2012(year)
	if _, err := m.Generate(GenerateOptions{TotalJobs: 0, Span: year}); err == nil {
		t.Error("TotalJobs=0 accepted")
	}
	if _, err := m.Generate(GenerateOptions{TotalJobs: 10, Span: 0}); err == nil {
		t.Error("Span=0 accepted")
	}
}

func TestGenerateMaxDurationClamp(t *testing.T) {
	m := NationalGrid2012(year)
	tr, err := m.Generate(GenerateOptions{
		TotalJobs: 3000, Start: start, Span: year, Seed: 5,
		MaxDuration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.Duration > time.Hour {
			t.Fatalf("duration %v exceeds clamp", j.Duration)
		}
	}
}

func TestScaleToLoad(t *testing.T) {
	m := NationalGrid2012(6 * time.Hour)
	tr, _ := m.Generate(GenerateOptions{
		TotalJobs: 2000, Start: start, Span: 6 * time.Hour, Seed: 6,
		CalibrateUsage: true,
	})
	scaled := ScaleToLoad(tr, 240, 0.95, 6*time.Hour)
	got := scaled.TotalUsage()
	want := 0.95 * 240 * (6 * time.Hour).Seconds()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("scaled usage = %g, want %g", got, want)
	}
	// Degenerate inputs return the trace unchanged.
	if ScaleToLoad(tr, 0, 0.95, 6*time.Hour) != tr {
		t.Error("cores=0 should return input")
	}
}

func TestU65ArrivalHasFourPhases(t *testing.T) {
	comps, weights := U65ArrivalPhases(year)
	if len(comps) != 4 || len(weights) != 4 {
		t.Fatalf("phases = %d, weights = %d, want 4", len(comps), len(weights))
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("phase weights sum to %g", sum)
	}
	// Phase centres must be spread in increasing order across the year
	// (quarterly cycles).
	prev := -1.0
	for i, c := range comps {
		g, ok := c.(dist.GEV)
		if !ok {
			t.Fatalf("phase %d is %T, want GEV", i, c)
		}
		if g.Mu <= prev {
			t.Fatalf("phase centres not increasing: %g after %g", g.Mu, prev)
		}
		prev = g.Mu
		if g.K != U65PhaseShapes[i] {
			t.Errorf("phase %d shape = %g, want %g", i, g.K, U65PhaseShapes[i])
		}
	}
}

func TestU65ArrivalsAreMultimodal(t *testing.T) {
	// Generated U65 arrivals must show four distinct quarterly clusters:
	// each quarter of the year should hold a nontrivial share of arrivals.
	m := NationalGrid2012(year)
	tr, _ := m.Generate(GenerateOptions{TotalJobs: 40000, Start: start, Span: year, Seed: 9})
	off := tr.SubmitOffsets(U65)
	quarters := make([]int, 4)
	q := year.Seconds() / 4
	for _, o := range off {
		i := int(o / q)
		if i > 3 {
			i = 3
		}
		quarters[i]++
	}
	for i, c := range quarters {
		frac := float64(c) / float64(len(off))
		if frac < 0.10 {
			t.Errorf("quarter %d holds only %.1f%% of U65 arrivals", i, 100*frac)
		}
	}
}

func TestBurstyShiftsU3Burst(t *testing.T) {
	span := 6 * time.Hour
	m := Bursty2012(span)
	tr, _ := m.Generate(GenerateOptions{TotalJobs: 20000, Start: start, Span: span, Seed: 10})
	js := trace.JobShares(tr)
	if math.Abs(js[U3]-0.455) > 0.005 {
		t.Errorf("bursty U3 job share = %.4f, want 0.455", js[U3])
	}
	if math.Abs(js[U65]-0.455) > 0.005 {
		t.Errorf("bursty U65 job share = %.4f, want 0.455", js[U65])
	}
	// The U3 burst must start after one third of the run: the 10th
	// percentile of U3 arrivals should be past span/3.
	off := tr.SubmitOffsets(U3)
	sort.Float64s(off)
	p10 := off[len(off)/10]
	if p10 < span.Seconds()/3 {
		t.Errorf("U3 10th-percentile arrival at %.0fs, want after %.0fs", p10, span.Seconds()/3)
	}
}

func TestBurstyUsageShares(t *testing.T) {
	span := 6 * time.Hour
	m := Bursty2012(span)
	tr, _ := m.Generate(GenerateOptions{
		TotalJobs: 20000, Start: start, Span: span, Seed: 11,
		CalibrateUsage: true,
	})
	us := trace.UsageShares(tr)
	want := map[string]float64{U65: 0.47, U30: 0.385, U3: 0.12, UOth: 0.025}
	for u, w := range want {
		if math.Abs(us[u]-w) > 0.01 {
			t.Errorf("%s usage share = %.4f, want %.4f", u, us[u], w)
		}
	}
}

func TestEffectiveRangeInsideUnit(t *testing.T) {
	g, _ := dist.NewGEV(0.195, 1000, 5000)
	lo, hi := effectiveRange(g, 20000)
	if lo <= 0 || hi >= 1 || lo >= hi {
		t.Errorf("effective range = [%g, %g]", lo, hi)
	}
	// A model entirely outside the window falls back to [0,1].
	far, _ := dist.NewNormal(1e12, 1)
	lo, hi = effectiveRange(far, 100)
	if lo != 0 || hi != 1 {
		t.Errorf("fallback range = [%g, %g]", lo, hi)
	}
}
