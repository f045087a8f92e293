package metrics

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func mins(m int) time.Time { return t0.Add(time.Duration(m) * time.Minute) }

func TestSeriesAddAtLast(t *testing.T) {
	s := &Series{}
	s.Add(mins(0), 1)
	s.Add(mins(10), 2)
	s.Add(mins(20), 3)
	if s.Len() != 3 || s.Last() != 3 {
		t.Errorf("Len=%d Last=%g", s.Len(), s.Last())
	}
	if got := s.At(mins(15)); got != 2 {
		t.Errorf("At(15m) = %g", got)
	}
	if got := s.At(mins(20)); got != 3 {
		t.Errorf("At(20m) = %g", got)
	}
	if got := s.At(mins(-5)); !math.IsNaN(got) {
		t.Errorf("At before start = %g", got)
	}
	empty := &Series{}
	if !math.IsNaN(empty.Last()) {
		t.Error("empty Last should be NaN")
	}
}

func TestPerUser(t *testing.T) {
	p := PerUser{}
	p.Add("b", mins(0), 1)
	p.Add("a", mins(0), 2)
	p.Add("a", mins(1), 3)
	if got := p.Users(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Users = %v", got)
	}
	if p["a"].Len() != 2 {
		t.Errorf("a samples = %d", p["a"].Len())
	}
}

func TestConvergenceTime(t *testing.T) {
	s := &Series{}
	// Oscillates, then settles at 0.5 from minute 30 on.
	vals := []float64{0.9, 0.2, 0.7, 0.52, 0.49, 0.5, 0.51}
	for i, v := range vals {
		s.Add(mins(i*10), v)
	}
	at, ok := ConvergenceTime(s, 0.5, 0.05)
	if !ok {
		t.Fatal("never converged")
	}
	if !at.Equal(mins(30)) {
		t.Errorf("converged at %v, want %v", at, mins(30))
	}
	// Ends badly: no convergence.
	s.Add(mins(100), 0.9)
	if _, ok := ConvergenceTime(s, 0.5, 0.05); ok {
		t.Error("converged despite bad ending")
	}
	if _, ok := ConvergenceTime(&Series{}, 0.5, 0.05); ok {
		t.Error("empty series converged")
	}
	if _, ok := ConvergenceTime(nil, 0.5, 0.05); ok {
		t.Error("nil series converged")
	}
}

func TestMeanAbsError(t *testing.T) {
	s := &Series{}
	s.Add(mins(0), 0.9) // excluded by from
	s.Add(mins(10), 0.6)
	s.Add(mins(20), 0.45)
	if got := MeanAbsError(s, 0.5, mins(5)); math.Abs(got-0.075) > 1e-12 {
		t.Errorf("MeanAbsError = %g", got)
	}
	if got := MeanAbsError(s, 0.5, mins(100)); !math.IsNaN(got) {
		t.Errorf("empty window MAE = %g", got)
	}
}
