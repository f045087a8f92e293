package grid

import (
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/sched"
	"repro/internal/trace"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeRM records submissions.
type fakeRM struct {
	jobs []*sched.Job
}

func (f *fakeRM) Submit(j *sched.Job)    { f.jobs = append(f.jobs, j) }
func (f *fakeRM) QueueLen() int          { return len(f.jobs) }
func (f *fakeRM) RunningCount() int      { return 0 }
func (f *fakeRM) Schedule(now time.Time) {}

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{}
	got := []int{}
	for i := 0; i < 6; i++ {
		got = append(got, rr.Pick(3, nil))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks = %v", got)
		}
	}
	if rr.Name() != "round-robin" {
		t.Error("name")
	}
}

func TestStochasticCoversAllTargetsDeterministically(t *testing.T) {
	s1 := NewStochastic(42)
	s2 := NewStochastic(42)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		a := s1.Pick(4, nil)
		b := s2.Pick(4, nil)
		if a != b {
			t.Fatal("same seed diverged")
		}
		counts[a]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("target %d picked %d/4000 times", i, c)
		}
	}
	if s1.Name() != "stochastic" {
		t.Error("name")
	}
}

func TestSubmitHostValidation(t *testing.T) {
	k := eventsim.New(t0)
	if _, err := NewSubmitHost(nil, []Target{{}}, nil); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewSubmitHost(k, nil, nil); err == nil {
		t.Error("no targets accepted")
	}
}

func TestSubmitNowMapsIdentity(t *testing.T) {
	k := eventsim.New(t0)
	rm := &fakeRM{}
	h, err := NewSubmitHost(k, []Target{{
		Name:    "s",
		RM:      rm,
		MapUser: func(g string) string { return "local_" + g },
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.SubmitNow(&sched.Job{ID: 1, GridUser: "alice"})
	if len(rm.jobs) != 1 || rm.jobs[0].LocalUser != "local_alice" {
		t.Errorf("jobs = %+v", rm.jobs)
	}
	if h.Submitted() != 1 {
		t.Errorf("submitted = %d, want 1", h.Submitted())
	}
}

func TestSubmitNowDefaultIdentity(t *testing.T) {
	k := eventsim.New(t0)
	rm := &fakeRM{}
	h, _ := NewSubmitHost(k, []Target{{Name: "s", RM: rm}}, nil)
	h.SubmitNow(&sched.Job{ID: 1, GridUser: "bob"})
	if rm.jobs[0].LocalUser != "bob" {
		t.Errorf("local user = %q", rm.jobs[0].LocalUser)
	}
}

func TestLoadTraceSubmitsAtSubmitTimes(t *testing.T) {
	k := eventsim.New(t0)
	rm := &fakeRM{}
	h, _ := NewSubmitHost(k, []Target{{Name: "s", RM: rm}}, nil)
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: 1, User: "a", Submit: t0.Add(time.Minute), Duration: time.Second, Procs: 1},
		{ID: 2, User: "b", Submit: t0.Add(2 * time.Minute), Duration: time.Second, Procs: 1},
	}}
	h.LoadTrace(tr)
	if h.Submitted() != 0 {
		t.Error("jobs submitted before their time")
	}
	k.Run(t0.Add(90 * time.Second))
	if h.Submitted() != 1 {
		t.Errorf("after 90s: %d submitted", h.Submitted())
	}
	k.RunAll(0)
	if h.Submitted() != 2 {
		t.Errorf("final: %d submitted", h.Submitted())
	}
	if rm.jobs[0].GridUser != "a" || rm.jobs[0].Duration != time.Second {
		t.Errorf("job 0 = %+v", rm.jobs[0])
	}
}

func TestMultiTargetDistribution(t *testing.T) {
	k := eventsim.New(t0)
	rms := []*fakeRM{{}, {}, {}}
	targets := make([]Target, 3)
	for i := range targets {
		targets[i] = Target{Name: string(rune('a' + i)), RM: rms[i]}
	}
	h, _ := NewSubmitHost(k, targets, NewStochastic(7))
	for i := 0; i < 300; i++ {
		h.SubmitNow(&sched.Job{ID: int64(i), GridUser: "u"})
	}
	for i, rm := range rms {
		if len(rm.jobs) < 50 {
			t.Errorf("target %d got only %d jobs", i, len(rm.jobs))
		}
	}
}
