package maui

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/sched"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func job(id int64, user string, dur time.Duration, at time.Time) *sched.Job {
	return &sched.Job{ID: id, LocalUser: user, Procs: 1, Duration: dur, Submit: at}
}

func TestSubmitDefersToIteration(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := cluster.New("c", 4, k)
	s := New(Config{Cluster: c})
	s.Submit(job(1, "u", time.Minute, t0))
	if c.RunningCount() != 0 {
		t.Error("Maui should not start jobs at submit time")
	}
	s.Schedule(t0)
	if c.RunningCount() != 1 {
		t.Error("scheduling iteration did not start the job")
	}
	if s.Submitted() != 1 {
		t.Errorf("Submitted = %d", s.Submitted())
	}
}

func TestFairshareCalloutOrdersQueue(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := cluster.New("c", 1, k)
	s := New(Config{
		Cluster: c,
		Callouts: Callouts{
			FairsharePriority: func(u string) (float64, error) {
				if u == "hi" {
					return 0.9, nil
				}
				return 0.1, nil
			},
		},
	})
	s.Submit(job(1, "lo", time.Hour, t0))
	s.Submit(job(2, "hi", time.Hour, t0))
	var order []int64
	c.OnComplete(func(j *sched.Job) { order = append(order, j.ID) })
	s.Schedule(t0)
	k.RunAll(0)
	if len(order) != 2 || order[0] != 2 {
		t.Errorf("completion order = %v, want hi job (2) first", order)
	}
}

func TestJobCompletedCalloutInjected(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := cluster.New("c", 1, k)
	var reported []string
	s := New(Config{
		Cluster: c,
		Callouts: Callouts{
			JobCompleted: func(j *sched.Job) { reported = append(reported, j.LocalUser) },
		},
	})
	s.Submit(job(1, "alice", time.Minute, t0))
	s.Schedule(t0)
	k.RunAll(0)
	if len(reported) != 1 || reported[0] != "alice" {
		t.Errorf("reported = %v", reported)
	}
}

func TestCompletionTriggersNextIteration(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := cluster.New("c", 1, k)
	s := New(Config{Cluster: c})
	j1, j2 := job(1, "u", time.Minute, t0), job(2, "u", time.Minute, t0)
	s.Submit(j1)
	s.Submit(j2)
	s.Schedule(t0)
	k.RunAll(0)
	if j1.State != sched.Completed || j2.State != sched.Completed {
		t.Errorf("states = %v, %v, want both completed (completion reschedules)", j1.State, j2.State)
	}
}

func TestCalloutFailureFallsBack(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := cluster.New("c", 1, k)
	s := New(Config{
		Cluster: c,
		Callouts: Callouts{
			FairsharePriority: func(string) (float64, error) {
				return 0, errors.New("down")
			},
		},
	})
	j := job(1, "u", time.Minute, t0)
	s.Submit(j)
	s.Schedule(t0)
	k.RunAll(0)
	if j.State != sched.Completed {
		t.Error("job did not run despite call-out failure")
	}
	if s.Errors() == 0 {
		t.Error("errors not counted")
	}
}
