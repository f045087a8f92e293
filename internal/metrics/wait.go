package metrics

import (
	"math"
	"time"
)

// WaitStat summarizes queue-wait behaviour for one user: mean/max wait and
// mean bounded slowdown ((wait+run)/max(run, 10s), the standard metric that
// caps the slowdown of very short jobs).
type WaitStat struct {
	// Count is the number of completed jobs.
	Count int
	// MeanWaitSeconds and MaxWaitSeconds summarize queue waits.
	MeanWaitSeconds, MaxWaitSeconds float64
	// MeanBoundedSlowdown is the mean of (wait+run)/max(run, 10s).
	MeanBoundedSlowdown float64
}

// WaitCollector accumulates per-user wait statistics.
type WaitCollector struct {
	perUser map[string]*waitAcc
}

type waitAcc struct {
	count   int
	sumWait float64
	maxWait float64
	sumSlow float64
}

// NewWaitCollector returns an empty collector.
func NewWaitCollector() *WaitCollector {
	return &WaitCollector{perUser: map[string]*waitAcc{}}
}

// Record adds one completed job's wait and run time for user.
func (w *WaitCollector) Record(user string, wait, run time.Duration) {
	a := w.perUser[user]
	if a == nil {
		a = &waitAcc{}
		w.perUser[user] = a
	}
	ws := wait.Seconds()
	if ws < 0 {
		ws = 0
	}
	a.count++
	a.sumWait += ws
	a.maxWait = math.Max(a.maxWait, ws)
	denom := math.Max(run.Seconds(), 10)
	a.sumSlow += (ws + run.Seconds()) / denom
}

// Stats returns the per-user statistics.
func (w *WaitCollector) Stats() map[string]WaitStat {
	out := make(map[string]WaitStat, len(w.perUser))
	for u, a := range w.perUser {
		s := WaitStat{Count: a.count, MaxWaitSeconds: a.maxWait}
		if a.count > 0 {
			s.MeanWaitSeconds = a.sumWait / float64(a.count)
			s.MeanBoundedSlowdown = a.sumSlow / float64(a.count)
		}
		out[u] = s
	}
	return out
}
