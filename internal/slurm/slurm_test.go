package slurm

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/usage"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

// staticFS returns fixed fairshare values per user.
type staticFS struct {
	values map[string]float64
	err    error
	calls  int
}

func (s *staticFS) Name() string { return "static" }
func (s *staticFS) Fairshare(u string) (float64, error) {
	s.calls++
	if s.err != nil {
		return 0, s.err
	}
	return s.values[u], nil
}

func newSched(t *testing.T, k *eventsim.Kernel, cores int, fs FairshareProvider, opts ...func(*Config)) (*Scheduler, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New("c", cores, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cluster:  c,
		Priority: &Multifactor{FS: fs},
	}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg), c
}

func job(id int64, user string, dur time.Duration, at time.Time) *sched.Job {
	return &sched.Job{ID: id, LocalUser: user, Procs: 1, Duration: dur, Submit: at}
}

func TestHighFairshareRunsFirst(t *testing.T) {
	k := eventsim.New(t0)
	fs := &staticFS{values: map[string]float64{"hi": 0.9, "lo": 0.1}}
	s, c := newSched(t, k, 1, fs)

	// Fill the single core so both test jobs queue.
	s.Submit(job(1, "lo", time.Hour, t0))
	s.Submit(job(2, "lo", time.Hour, t0))
	s.Submit(job(3, "hi", time.Hour, t0))
	if c.RunningCount() != 1 || s.QueueLen() != 2 {
		t.Fatalf("running=%d queued=%d", c.RunningCount(), s.QueueLen())
	}
	var order []int64
	c.OnComplete(func(j *sched.Job) { order = append(order, j.ID) })
	k.RunAll(0)
	// Job 1 runs first (it was alone), then job 3 (hi) beats job 2 (lo).
	want := []int64{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

func TestJobCompPluginsFire(t *testing.T) {
	k := eventsim.New(t0)
	fs := &staticFS{values: map[string]float64{}}
	var reported []*sched.Job
	handler := jobCompFunc(func(j *sched.Job) { reported = append(reported, j) })
	s, _ := newSched(t, k, 2, fs, func(c *Config) { c.JobComp = []JobCompHandler{handler} })
	s.Submit(job(1, "u", time.Minute, t0))
	k.RunAll(0)
	if len(reported) != 1 || reported[0].ID != 1 {
		t.Errorf("reported = %v", reported)
	}
}

type jobCompFunc func(*sched.Job)

func (f jobCompFunc) JobCompleted(j *sched.Job) { f(j) }

func TestCompletionTriggersBackfill(t *testing.T) {
	k := eventsim.New(t0)
	fs := &staticFS{values: map[string]float64{}}
	s, _ := newSched(t, k, 1, fs)
	j1, j2 := job(1, "u", time.Minute, t0), job(2, "u", time.Minute, t0)
	s.Submit(j1)
	s.Submit(j2)
	k.RunAll(0)
	if j1.State != sched.Completed || j2.State != sched.Completed {
		t.Errorf("states = %v, %v, want both jobs to run back-to-back", j1.State, j2.State)
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue = %d", s.QueueLen())
	}
}

func TestReprioritizeIntervalCachesPriorities(t *testing.T) {
	k := eventsim.New(t0)
	fs := &staticFS{values: map[string]float64{"u": 0.5}}
	s, _ := newSched(t, k, 1, fs, func(c *Config) {
		c.ReprioritizeInterval = 10 * time.Minute
	})
	// Fill the core, then enqueue more jobs.
	s.Submit(job(1, "u", time.Hour, t0))
	base := fs.calls
	for i := int64(2); i <= 5; i++ {
		s.Submit(job(i, "u", time.Hour, t0))
	}
	// Each submit computes the new job's priority once; queued jobs are NOT
	// all recomputed each pass within the interval.
	perSubmit := fs.calls - base
	if perSubmit > 8 { // 4 submits; allow one full recompute
		t.Errorf("provider called %d times for 4 submits with caching", perSubmit)
	}
	// After the interval, a pass recomputes everything.
	k.Clock().Advance(11 * time.Minute)
	before := fs.calls
	s.Schedule(k.Now())
	if fs.calls-before < 4 {
		t.Errorf("expected full recompute after interval, got %d calls", fs.calls-before)
	}
}

func TestStrictOrderBlocksLowerJobs(t *testing.T) {
	fs := &staticFS{values: map[string]float64{"big": 0.9, "small": 0.1}}
	// 2-core cluster: a running 1-core job, a queued 2-core high-priority
	// job that does not fit, and a 1-core low-priority job that would fit.
	mk := func(strict bool) (int64, int64) {
		k := eventsim.New(t0)
		c, _ := cluster.New("c", 2, k)
		s := New(Config{
			Cluster:     c,
			Priority:    &Multifactor{FS: fs},
			StrictOrder: strict,
		})
		s.Submit(&sched.Job{ID: 1, LocalUser: "small", Procs: 1, Duration: time.Hour, Submit: t0})
		s.Submit(&sched.Job{ID: 2, LocalUser: "big", Procs: 2, Duration: time.Hour, Submit: t0})
		s.Submit(&sched.Job{ID: 3, LocalUser: "small", Procs: 1, Duration: time.Hour, Submit: t0})
		return int64(c.RunningCount()), int64(s.QueueLen())
	}
	running, queued := mk(true)
	if running != 1 || queued != 2 {
		t.Errorf("strict: running=%d queued=%d, want 1/2 (blocked by big job)", running, queued)
	}
	running, queued = mk(false)
	if running != 2 || queued != 1 {
		t.Errorf("backfill: running=%d queued=%d, want 2/1", running, queued)
	}
}

func TestProviderFailureFallsBackToNeutral(t *testing.T) {
	k := eventsim.New(t0)
	fs := &staticFS{err: errors.New("aequus down")}
	mf := &Multifactor{FS: fs}
	s, _ := newSched(t, k, 1, fs, func(cfg *Config) { cfg.Priority = mf })
	j := job(1, "u", time.Minute, t0)
	s.Submit(j)
	k.RunAll(0)
	if j.State != sched.Completed {
		t.Error("job did not run despite provider failure")
	}
	if mf.Errors() == 0 {
		t.Error("errors not counted")
	}
}

func TestLocalFairshareBaseline(t *testing.T) {
	clock := simclock.NewSim(t0)
	lf := NewLocalFairshare(map[string]float64{"a": 1, "b": 1},
		usage.None{}, time.Minute, clock)

	// No usage: everyone at factor 1.
	f, err := lf.Fairshare("a")
	if err != nil || f != 1 {
		t.Errorf("initial = %g, %v", f, err)
	}
	// a consumes everything: a drops, b stays high.
	lf.JobCompleted(&sched.Job{LocalUser: "a", Procs: 1,
		Start: t0, End: t0.Add(time.Hour), State: sched.Completed})
	fa, _ := lf.Fairshare("a")
	fb, _ := lf.Fairshare("b")
	if fa >= fb {
		t.Errorf("a=%g should be below b=%g", fa, fb)
	}
	// a at usage share 1, target 0.5 → 2^(-2) = 0.25.
	if math.Abs(fa-0.25) > 1e-9 {
		t.Errorf("a = %g, want 0.25", fa)
	}
	// Unknown user has no share.
	f0, _ := lf.Fairshare("ghost")
	if f0 != 0 {
		t.Errorf("ghost = %g", f0)
	}
}

func TestSubmittedCounter(t *testing.T) {
	k := eventsim.New(t0)
	fs := &staticFS{values: map[string]float64{}}
	s, _ := newSched(t, k, 4, fs)
	for i := int64(1); i <= 3; i++ {
		s.Submit(job(i, "u", time.Minute, t0))
	}
	if s.Submitted() != 3 {
		t.Errorf("Submitted = %d", s.Submitted())
	}
	if s.RunningCount() != 3 {
		t.Errorf("RunningCount = %d", s.RunningCount())
	}
}
