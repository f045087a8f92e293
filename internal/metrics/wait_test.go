package metrics

import (
	"math"
	"testing"
	"time"
)

func TestWaitCollector(t *testing.T) {
	w := NewWaitCollector()
	w.Record("a", 10*time.Second, 100*time.Second)
	w.Record("a", 30*time.Second, 100*time.Second)
	w.Record("b", 0, 5*time.Second)
	stats := w.Stats()

	a := stats["a"]
	if a.Count != 2 {
		t.Errorf("a count = %d", a.Count)
	}
	if math.Abs(a.MeanWaitSeconds-20) > 1e-12 {
		t.Errorf("a mean wait = %g", a.MeanWaitSeconds)
	}
	if a.MaxWaitSeconds != 30 {
		t.Errorf("a max wait = %g", a.MaxWaitSeconds)
	}
	// Slowdowns: (10+100)/100 = 1.1 and (30+100)/100 = 1.3 → mean 1.2.
	if math.Abs(a.MeanBoundedSlowdown-1.2) > 1e-12 {
		t.Errorf("a slowdown = %g", a.MeanBoundedSlowdown)
	}

	// Short job bounded at 10s: (0+5)/10 = 0.5.
	b := stats["b"]
	if math.Abs(b.MeanBoundedSlowdown-0.5) > 1e-12 {
		t.Errorf("b slowdown = %g", b.MeanBoundedSlowdown)
	}

	if len(stats) != 2 {
		t.Errorf("stats = %v, want users a and b", stats)
	}
}

func TestWaitCollectorNegativeWaitClamped(t *testing.T) {
	w := NewWaitCollector()
	w.Record("u", -5*time.Second, time.Minute)
	if got := w.Stats()["u"].MeanWaitSeconds; got != 0 {
		t.Errorf("negative wait = %g", got)
	}
}

func TestWaitCollectorEmpty(t *testing.T) {
	w := NewWaitCollector()
	if len(w.Stats()) != 0 {
		t.Error("empty collector not empty")
	}
}
