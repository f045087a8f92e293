// Package metrics provides the time-series collection and convergence
// measures used to reproduce the paper's testbed figures: per-user usage
// shares and priorities sampled over the run, windowed share computation,
// and convergence-time extraction.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Series is an append-only time series.
type Series struct {
	Times  []time.Time
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(t time.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// At returns the last value at or before t (NaN when none).
func (s *Series) At(t time.Time) float64 {
	i := sort.Search(len(s.Times), func(i int) bool { return s.Times[i].After(t) })
	if i == 0 {
		return math.NaN()
	}
	return s.Values[i-1]
}

// Last returns the final value (NaN when empty).
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	return s.Values[len(s.Values)-1]
}

// PerUser holds one series per user.
type PerUser map[string]*Series

// Add appends a sample to a user's series, creating it on first use.
func (p PerUser) Add(user string, t time.Time, v float64) {
	s := p[user]
	if s == nil {
		s = &Series{}
		p[user] = s
	}
	s.Add(t, v)
}

// Users returns the sorted user names.
func (p PerUser) Users() []string {
	out := make([]string, 0, len(p))
	for u := range p {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// ConvergenceTime returns the first sample time after which the series stays
// within tol of target until the end (and the fraction of run spent
// converged). ok is false when the series never converges.
func ConvergenceTime(s *Series, target, tol float64) (time.Time, bool) {
	if s == nil || s.Len() == 0 {
		return time.Time{}, false
	}
	// Find the last sample outside tolerance; convergence starts after it.
	lastBad := -1
	for i, v := range s.Values {
		if math.Abs(v-target) > tol {
			lastBad = i
		}
	}
	if lastBad == len(s.Values)-1 {
		return time.Time{}, false // ends out of tolerance
	}
	return s.Times[lastBad+1], true
}

// MeanAbsError returns the average |value − target| from `from` on (NaN when
// no samples qualify).
func MeanAbsError(s *Series, target float64, from time.Time) float64 {
	var sum float64
	n := 0
	for i, v := range s.Values {
		if s.Times[i].Before(from) {
			continue
		}
		sum += math.Abs(v - target)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// AggregateDeviation builds the series D(t) = Σ_u |share_u(t) − target_u|
// over the common sample times of the per-user series — the overall
// system-imbalance curve used for convergence-time comparisons.
func AggregateDeviation(p PerUser, targets map[string]float64) *Series {
	var ref *Series
	for u := range targets {
		if s := p[u]; s != nil && (ref == nil || s.Len() < ref.Len()) {
			ref = s
		}
	}
	if ref == nil {
		return &Series{}
	}
	out := &Series{}
	for i, at := range ref.Times {
		var d float64
		for u, target := range targets {
			s := p[u]
			if s == nil {
				continue
			}
			var v float64
			if s == ref {
				v = s.Values[i]
			} else {
				v = s.At(at)
			}
			if !math.IsNaN(v) {
				d += math.Abs(v - target)
			}
		}
		out.Add(at, d)
	}
	return out
}

// FirstSustainedBelow returns the time of the first sample from which the
// series stays below threshold for `consecutive` samples. ok is false when
// no such point exists.
func FirstSustainedBelow(s *Series, threshold float64, consecutive int) (time.Time, bool) {
	if s == nil || s.Len() == 0 || consecutive < 1 {
		return time.Time{}, false
	}
	run := 0
	for i, v := range s.Values {
		if v < threshold {
			run++
			if run >= consecutive {
				return s.Times[i-consecutive+1], true
			}
		} else {
			run = 0
		}
	}
	return time.Time{}, false
}
