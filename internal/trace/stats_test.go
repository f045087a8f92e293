package trace

import (
	"math"
	"testing"
	"time"
)

func statsTrace() *Trace {
	tr := &Trace{}
	add := func(user string, n int, dur time.Duration) {
		for i := 0; i < n; i++ {
			tr.Jobs = append(tr.Jobs, Job{
				ID: int64(len(tr.Jobs) + 1), User: user,
				Submit:   t0.Add(time.Duration(len(tr.Jobs)) * time.Second),
				Duration: dur, Procs: 1,
			})
		}
	}
	add("u65", 81, 100*time.Second) // usage 8100
	add("u30", 7, 500*time.Second)  // usage 3500
	add("u3", 9, 40*time.Second)    // usage 360
	add("a", 2, 10*time.Second)     // usage 20
	add("b", 1, 15*time.Second)     // usage 15
	return tr
}

func TestUserStatsSharesSumToOne(t *testing.T) {
	stats := UserStats(statsTrace())
	var jobSum, usageSum float64
	for _, s := range stats {
		jobSum += s.JobShare
		usageSum += s.UsageShare
	}
	if math.Abs(jobSum-1) > 1e-12 {
		t.Errorf("job shares sum to %g", jobSum)
	}
	if math.Abs(usageSum-1) > 1e-12 {
		t.Errorf("usage shares sum to %g", usageSum)
	}
}

func TestUserStatsOrderedByUsage(t *testing.T) {
	stats := UserStats(statsTrace())
	if stats[0].User != "u65" || stats[1].User != "u30" {
		t.Errorf("order = %v, %v", stats[0].User, stats[1].User)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Usage > stats[i-1].Usage {
			t.Error("not sorted by usage")
		}
	}
	if stats[0].Jobs != 81 {
		t.Errorf("u65 jobs = %d", stats[0].Jobs)
	}
	if math.Abs(stats[0].JobShare-0.81) > 1e-12 {
		t.Errorf("u65 job share = %g", stats[0].JobShare)
	}
}

func TestSharesMaps(t *testing.T) {
	tr := statsTrace()
	us := UsageShares(tr)
	js := JobShares(tr)
	if len(us) != 5 || len(js) != 5 {
		t.Fatalf("map sizes %d %d", len(us), len(js))
	}
	if math.Abs(js["u3"]-0.09) > 1e-12 {
		t.Errorf("u3 job share = %g", js["u3"])
	}
	total := 8100.0 + 3500 + 360 + 20 + 15
	if math.Abs(us["u30"]-3500/total) > 1e-12 {
		t.Errorf("u30 usage share = %g", us["u30"])
	}
}

func TestUserStatsEmptyTrace(t *testing.T) {
	if got := UserStats(&Trace{}); len(got) != 0 {
		t.Errorf("stats of empty trace = %v", got)
	}
}
