package sched

import (
	"testing"
	"time"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Pending: "pending", Running: "running", Completed: "completed", State(99): "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q", s, got)
		}
	}
}

func TestWaitTime(t *testing.T) {
	j := &Job{Submit: t0, State: Pending}
	if got := j.WaitTime(t0.Add(5 * time.Minute)); got != 5*time.Minute {
		t.Errorf("pending wait = %v", got)
	}
	j.State = Running
	j.Start = t0.Add(2 * time.Minute)
	if got := j.WaitTime(t0.Add(time.Hour)); got != 2*time.Minute {
		t.Errorf("running wait = %v", got)
	}
}

func TestWeightsCombine(t *testing.T) {
	w := Weights{Fairshare: 2, Age: 1, QoS: 0.5, JobSize: 0.25}
	f := Factors{Fairshare: 0.5, Age: 1, QoS: 1, JobSize: 0}
	if got := w.Combine(f); got != 2*0.5+1+0.5 {
		t.Errorf("Combine = %g", got)
	}
	if got := FairshareOnly().Combine(Factors{Fairshare: 0.7, Age: 1}); got != 0.7 {
		t.Errorf("FairshareOnly = %g", got)
	}
}

func TestSortQueueByPriorityThenSubmitThenID(t *testing.T) {
	q := []QueuedJob{
		{Job: &Job{ID: 3, Submit: t0}, Priority: 0.5},
		{Job: &Job{ID: 1, Submit: t0.Add(time.Second)}, Priority: 0.9},
		{Job: &Job{ID: 2, Submit: t0}, Priority: 0.5},
		{Job: &Job{ID: 4, Submit: t0.Add(-time.Second)}, Priority: 0.5},
	}
	SortQueue(q)
	wantIDs := []int64{1, 4, 2, 3}
	for i, want := range wantIDs {
		if q[i].Job.ID != want {
			ids := make([]int64, len(q))
			for k := range q {
				ids[k] = q[k].Job.ID
			}
			t.Fatalf("order = %v, want %v", ids, wantIDs)
		}
	}
}

func TestSortQueueDeterministic(t *testing.T) {
	mk := func() []QueuedJob {
		return []QueuedJob{
			{Job: &Job{ID: 1, Submit: t0}, Priority: 0.5},
			{Job: &Job{ID: 2, Submit: t0}, Priority: 0.5},
			{Job: &Job{ID: 3, Submit: t0}, Priority: 0.5},
		}
	}
	a, b := mk(), mk()
	SortQueue(a)
	SortQueue(b)
	for i := range a {
		if a[i].Job.ID != b[i].Job.ID {
			t.Fatal("sort not deterministic")
		}
	}
}
