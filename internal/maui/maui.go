// Package maui implements a Maui-like local resource manager. Maui has no
// plug-in system, so the Aequus integration is "done by applying patches to
// the Maui source code": the Callouts struct is the patch surface — the
// local fairshare calculation is replaced with a call into libaequus, and a
// job-completion call-out is injected for usage reporting.
//
// Scheduling follows Maui's model: a periodic scheduling iteration (the RM
// poll) recomputes all job priorities and starts jobs greedily in priority
// order.
package maui

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// Callouts are the patch points injected into the Maui source.
type Callouts struct {
	// FairsharePriority replaces the local fairshare factor calculation;
	// in the Aequus integration it calls libaequus. The returned value is
	// in [0,1].
	FairsharePriority func(localUser string) (float64, error)
	// JobCompleted is invoked when a job finishes (usage reporting).
	JobCompleted func(j *sched.Job)
}

// Config configures a Maui-like scheduler.
type Config struct {
	// Cluster executes the jobs.
	Cluster *cluster.Cluster
	// Callouts are the patched call-outs.
	Callouts Callouts
	// OnStart observes every job start with the queue priority it was
	// dispatched at and the pass (scheduling iteration or completion fill)
	// it belongs to. Within one pass, dispatch priorities are
	// non-increasing — the invariant the scenario harness checks.
	OnStart func(j *sched.Job, priority float64, pass uint64)
}

// Scheduler is a Maui-like resource manager.
type Scheduler struct {
	cfg Config

	mu        sync.Mutex
	queue     sched.PriorityQueue
	submitted int64
	errors    int
	passes    uint64
}

// New creates a scheduler; job completions fire the completion call-out and
// trigger a fill pass that starts the next queued jobs using the priorities
// of the last scheduling iteration (a full recompute happens only at the RM
// poll, like Maui's RMPOLLINTERVAL).
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg}
	cfg.Cluster.OnComplete(func(j *sched.Job) {
		if s.cfg.Callouts.JobCompleted != nil {
			s.cfg.Callouts.JobCompleted(j)
		}
		s.fill()
	})
	return s
}

// Submit implements sched.ResourceManager. Unlike the SLURM substrate, Maui
// defers scheduling to its next iteration; Submit only enqueues, with the
// job's priority computed at submit time. (The testbed drives iterations
// via the kernel at the RM poll interval, but a Schedule call right after
// Submit is also legal.)
func (s *Scheduler) Submit(j *sched.Job) {
	s.mu.Lock()
	j.State = sched.Pending
	s.queue.Push(j, s.priority(j))
	s.submitted++
	s.mu.Unlock()
}

// QueueLen implements sched.ResourceManager.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// RunningCount implements sched.ResourceManager.
func (s *Scheduler) RunningCount() int { return s.cfg.Cluster.RunningCount() }

// Submitted reports the lifetime submit counter.
func (s *Scheduler) Submitted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted
}

// Errors reports failed fairshare call-outs.
func (s *Scheduler) Errors() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errors
}

// Pending returns a snapshot of the queued (not yet started) jobs in
// unspecified order. The scenario harness uses it for starvation checks;
// callers must not mutate the jobs.
func (s *Scheduler) Pending() []*sched.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Jobs()
}

// priority computes a job's priority (lock held): fairshare is the only
// component, as in the paper's tests, so it is the call-out's value bit for
// bit, or a neutral 0.5 when the call-out fails (counted). Without a
// call-out every job ties at 0 and dispatch is FIFO.
func (s *Scheduler) priority(j *sched.Job) float64 {
	if s.cfg.Callouts.FairsharePriority == nil {
		return 0
	}
	fs, err := s.cfg.Callouts.FairsharePriority(j.LocalUser)
	if err != nil {
		s.errors++
		return 0.5
	}
	return fs
}

// Schedule implements sched.ResourceManager: one Maui scheduling iteration —
// recompute every queued job's priority, then start jobs greedily in
// priority order.
func (s *Scheduler) Schedule(now time.Time) {
	s.mu.Lock()
	s.queue.Reprioritize(s.priority)
	s.startJobs()
	s.mu.Unlock()
}

// fill starts queued jobs using the last computed priorities (run on job
// completion, between iterations).
func (s *Scheduler) fill() {
	s.mu.Lock()
	s.startJobs()
	s.mu.Unlock()
}

// startJobs greedily starts queued jobs; jobs that do not fit are stashed
// and re-pushed (lock held).
func (s *Scheduler) startJobs() {
	s.passes++
	var stash []sched.QueuedJob
	for s.cfg.Cluster.FreeCores() > 0 {
		qj, ok := s.queue.Pop()
		if !ok {
			break
		}
		if !s.cfg.Cluster.TryStart(qj.Job) {
			stash = append(stash, qj)
		} else if s.cfg.OnStart != nil {
			s.cfg.OnStart(qj.Job, qj.Priority, s.passes)
		}
	}
	for _, qj := range stash {
		s.queue.Push(qj.Job, qj.Priority)
	}
}

var _ sched.ResourceManager = (*Scheduler)(nil)
