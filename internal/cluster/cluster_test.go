package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/sched"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNewValidation(t *testing.T) {
	k := eventsim.New(t0)
	if _, err := New("c", 0, k); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New("c", 4, nil); err == nil {
		t.Error("nil kernel accepted")
	}
	c, err := New("c", 4, k)
	if err != nil || c.FreeCores() != 4 {
		t.Errorf("New = %+v, %v", c, err)
	}
}

func TestJobLifecycle(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := New("c", 2, k)
	var completed []*sched.Job
	c.OnComplete(func(j *sched.Job) { completed = append(completed, j) })

	j := &sched.Job{ID: 1, LocalUser: "u", Procs: 1, Duration: time.Hour, Submit: t0}
	if !c.TryStart(j) {
		t.Fatal("TryStart failed with free cores")
	}
	if j.State != sched.Running || !j.Start.Equal(t0) || j.Site != "c" {
		t.Errorf("running job = %+v", j)
	}
	if c.FreeCores() != 1 || c.RunningCount() != 1 {
		t.Errorf("cluster state: free=%d running=%d", c.FreeCores(), c.RunningCount())
	}

	k.RunAll(0)
	if j.State != sched.Completed {
		t.Errorf("state after run = %v", j.State)
	}
	if !j.End.Equal(t0.Add(time.Hour)) {
		t.Errorf("End = %v", j.End)
	}
	if len(completed) != 1 || completed[0] != j {
		t.Errorf("completions = %v", completed)
	}
	if c.FreeCores() != 2 || c.RunningCount() != 0 {
		t.Errorf("after completion: free=%d running=%d", c.FreeCores(), c.RunningCount())
	}
}

func TestTryStartRejectsWhenFull(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := New("c", 2, k)
	j1 := &sched.Job{ID: 1, Procs: 2, Duration: time.Hour}
	j2 := &sched.Job{ID: 2, Procs: 1, Duration: time.Hour}
	if !c.TryStart(j1) {
		t.Fatal("j1 should start")
	}
	if c.TryStart(j2) {
		t.Error("j2 started on a full cluster")
	}
	if j2.State != sched.Pending {
		t.Errorf("j2 state = %v", j2.State)
	}
}

func TestTryStartRejectsNonPending(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := New("c", 4, k)
	j := &sched.Job{ID: 1, Procs: 1, Duration: time.Hour, State: sched.Running}
	if c.TryStart(j) {
		t.Error("non-pending job started")
	}
}

func TestProcsClampedToOne(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := New("c", 2, k)
	j := &sched.Job{ID: 1, Procs: 0, Duration: time.Minute}
	if !c.TryStart(j) {
		t.Fatal("zero-proc job rejected")
	}
	if c.FreeCores() != 1 {
		t.Errorf("free = %d, want 1 (clamped to 1 proc)", c.FreeCores())
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := New("c", 4, k)
	// 2 cores busy for 1 hour out of a 2-hour window on a 4-core cluster:
	// utilization = (2*3600) / (4*7200) = 0.25.
	j := &sched.Job{ID: 1, Procs: 2, Duration: time.Hour}
	c.TryStart(j)
	k.RunAll(0)
	k.Clock().Advance(time.Hour)
	if got := c.BusyCoreSeconds(); math.Abs(got-7200) > 1e-9 {
		t.Errorf("busy core-seconds = %g", got)
	}
	if got := c.Utilization(t0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("utilization = %g", got)
	}
	if got := c.Utilization(k.Now()); got != 0 {
		t.Errorf("empty-window utilization = %g", got)
	}
}

func TestConcurrentJobsCompleteInOrder(t *testing.T) {
	k := eventsim.New(t0)
	c, _ := New("c", 10, k)
	var order []int64
	c.OnComplete(func(j *sched.Job) { order = append(order, j.ID) })
	for i := 1; i <= 5; i++ {
		j := &sched.Job{ID: int64(i), Procs: 1, Duration: time.Duration(6-i) * time.Minute}
		if !c.TryStart(j) {
			t.Fatalf("job %d rejected", i)
		}
	}
	k.RunAll(0)
	// Shorter jobs (higher IDs) finish first.
	want := []int64{5, 4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v", order)
		}
	}
}
