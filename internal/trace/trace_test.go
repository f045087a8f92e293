package trace

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)

func sampleTrace() *Trace {
	return &Trace{Jobs: []Job{
		{ID: 1, User: "u65", Submit: t0, Duration: 100 * time.Second, Procs: 1},
		{ID: 2, User: "u30", Submit: t0.Add(10 * time.Second), Duration: 200 * time.Second, Procs: 2},
		{ID: 3, User: "u65", Submit: t0.Add(20 * time.Second), Duration: 50 * time.Second, Procs: 1},
		{ID: 4, User: "u3", Submit: t0.Add(30 * time.Second), Duration: 0, Procs: 1},
		{ID: 5, User: "admin", Submit: t0.Add(40 * time.Second), Duration: 500 * time.Second, Procs: 1, Admin: true},
	}}
}

func TestJobUsage(t *testing.T) {
	j := Job{Duration: 100 * time.Second, Procs: 4}
	if got := j.Usage(); got != 400 {
		t.Errorf("Usage = %g", got)
	}
	j0 := Job{Duration: 100 * time.Second, Procs: 0}
	if got := j0.Usage(); got != 100 {
		t.Errorf("Procs=0 Usage = %g, want clamp to 1 proc", got)
	}
}

func TestSortAndSpan(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 2, Submit: t0.Add(time.Hour), Duration: time.Minute, Procs: 1},
		{ID: 1, Submit: t0, Duration: 2 * time.Hour, Procs: 1},
	}}
	tr.Sort()
	if tr.Jobs[0].ID != 1 {
		t.Error("Sort did not order by submit")
	}
	start, span := tr.Span()
	if !start.Equal(t0) {
		t.Errorf("start = %v", start)
	}
	// Job 1 runs to t0+2h; job 2 to t0+1h1m. Span = 2h.
	if span != 2*time.Hour {
		t.Errorf("span = %v", span)
	}
}

func TestSpanEmpty(t *testing.T) {
	tr := &Trace{}
	start, span := tr.Span()
	if !start.IsZero() || span != 0 {
		t.Errorf("empty Span = %v, %v", start, span)
	}
}

func TestTotalUsage(t *testing.T) {
	tr := sampleTrace()
	want := 100.0 + 400 + 50 + 0 + 500
	if got := tr.TotalUsage(); got != want {
		t.Errorf("TotalUsage = %g, want %g", got, want)
	}
}

func TestInterArrivals(t *testing.T) {
	tr := sampleTrace()
	all := tr.InterArrivals("")
	if len(all) != 4 || all[0] != 10 {
		t.Errorf("all inter-arrivals = %v", all)
	}
	u65 := tr.InterArrivals("u65")
	if len(u65) != 1 || u65[0] != 20 {
		t.Errorf("u65 inter-arrivals = %v", u65)
	}
	if got := tr.InterArrivals("nobody"); got != nil {
		t.Errorf("unknown user inter-arrivals = %v", got)
	}
}

func TestDurationsAndOffsets(t *testing.T) {
	tr := sampleTrace()
	d := tr.Durations("u65")
	if len(d) != 2 || d[0] != 100 || d[1] != 50 {
		t.Errorf("Durations = %v", d)
	}
	off := tr.SubmitOffsets("u30")
	if len(off) != 1 || off[0] != 10 {
		t.Errorf("Offsets = %v", off)
	}
}

func TestClean(t *testing.T) {
	tr := sampleTrace()
	clean, rep := Clean(tr)
	if clean.Len() != 3 {
		t.Fatalf("cleaned len = %d, want 3", clean.Len())
	}
	if rep.JobsRemoved != 2 {
		t.Errorf("JobsRemoved = %d", rep.JobsRemoved)
	}
	if rep.UsageRemoved != 500 {
		t.Errorf("UsageRemoved = %g", rep.UsageRemoved)
	}
	if math.Abs(rep.JobFraction-0.4) > 1e-12 {
		t.Errorf("JobFraction = %g", rep.JobFraction)
	}
	for _, j := range clean.Jobs {
		if j.Admin || j.Duration == 0 {
			t.Errorf("cleaned trace retains job %d", j.ID)
		}
	}
}

func TestTimeScale(t *testing.T) {
	tr := sampleTrace()
	scaled := tr.TimeScale(0.5)
	if got := scaled.Jobs[1].Submit.Sub(t0); got != 5*time.Second {
		t.Errorf("scaled offset = %v", got)
	}
	if got := scaled.Jobs[0].Duration; got != 50*time.Second {
		t.Errorf("scaled duration = %v", got)
	}
	// Original untouched.
	if tr.Jobs[0].Duration != 100*time.Second {
		t.Error("TimeScale mutated input")
	}
	// Bad factor returns copy.
	same := tr.TimeScale(0)
	if same.Len() != tr.Len() {
		t.Error("factor 0 should copy")
	}
}

func TestScaleDurations(t *testing.T) {
	tr := sampleTrace()
	s := tr.ScaleDurations(2)
	if s.Jobs[0].Duration != 200*time.Second {
		t.Errorf("scaled = %v", s.Jobs[0].Duration)
	}
	if s.Jobs[0].Submit != tr.Jobs[0].Submit {
		t.Error("submit should be unchanged")
	}
}

func TestFilter(t *testing.T) {
	tr := sampleTrace()
	big := tr.Filter(func(j Job) bool { return j.Duration >= 100*time.Second })
	if big.Len() != 3 {
		t.Errorf("filtered = %d", big.Len())
	}
}
