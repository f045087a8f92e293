package slurm

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// Config configures a SLURM-like scheduler instance.
type Config struct {
	// Cluster executes the jobs.
	Cluster *cluster.Cluster
	// Priority is the multifactor priority plug-in.
	Priority *Multifactor
	// JobComp are the job-completion plug-ins, invoked in order.
	JobComp []JobCompHandler
	// ReprioritizeInterval bounds how often queue priorities are
	// recomputed — the "local resource manager re-prioritization interval",
	// update delay component (IV). Zero recomputes on every pass.
	ReprioritizeInterval time.Duration
	// StrictOrder stops a scheduling pass at the first job that does not
	// fit (pure FIFO-by-priority); false keeps filling with lower-priority
	// jobs that fit (first-fit backfill).
	StrictOrder bool
	// OnStart observes every job start with the queue priority it was
	// dispatched at and the scheduling pass it belongs to (passes number
	// consecutively per scheduler). Within one pass, dispatch priorities
	// are non-increasing — the invariant the scenario harness checks.
	OnStart func(j *sched.Job, priority float64, pass uint64)
}

// Scheduler is a SLURM-like resource manager. Pending jobs live in a
// priority heap; priorities are recomputed in bulk at the re-prioritization
// interval, so a scheduling pass is O(log n) per started job.
type Scheduler struct {
	cfg Config

	mu        sync.Mutex
	queue     sched.PriorityQueue
	lastPrios time.Time
	hasPrios  bool
	submitted int64
	passes    uint64
}

// New creates a scheduler and hooks job completions: completion plug-ins
// fire, then a new scheduling pass runs to fill the freed cores.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg}
	cfg.Cluster.OnComplete(func(j *sched.Job) {
		for _, h := range s.cfg.JobComp {
			h.JobCompleted(j)
		}
		s.Schedule(j.End)
	})
	return s
}

// Submit implements sched.ResourceManager: the job is enqueued with a
// freshly computed priority and a scheduling pass runs.
func (s *Scheduler) Submit(j *sched.Job) {
	s.mu.Lock()
	j.State = sched.Pending
	p := 0.0
	if s.cfg.Priority != nil {
		p = s.cfg.Priority.Priority(j)
	}
	s.queue.Push(j, p)
	s.submitted++
	s.mu.Unlock()
	s.Schedule(j.Submit)
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

// Pending returns a snapshot of the queued (not yet started) jobs in
// unspecified order. The scenario harness uses it for starvation checks;
// callers must not mutate the jobs.
func (s *Scheduler) Pending() []*sched.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Jobs()
}

// Schedule implements sched.ResourceManager: it recomputes queue priorities
// if the re-prioritization interval has elapsed, then starts jobs from the
// head of the priority queue onto the cluster.
func (s *Scheduler) Schedule(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.cfg.Priority != nil &&
		(!s.hasPrios || s.cfg.ReprioritizeInterval <= 0 ||
			now.Sub(s.lastPrios) >= s.cfg.ReprioritizeInterval) {
		s.queue.Reprioritize(s.cfg.Priority.Priority)
		s.lastPrios = now
		s.hasPrios = true
	}

	if s.cfg.Cluster.FreeCores() == 0 {
		return
	}
	s.passes++

	// Start jobs in priority order; jobs that do not fit are stashed and
	// re-pushed afterwards (unless StrictOrder stops the pass).
	var stash []sched.QueuedJob
	for s.cfg.Cluster.FreeCores() > 0 {
		qj, ok := s.queue.Pop()
		if !ok {
			break
		}
		if s.cfg.Cluster.TryStart(qj.Job) {
			if s.cfg.OnStart != nil {
				s.cfg.OnStart(qj.Job, qj.Priority, s.passes)
			}
			continue
		}
		stash = append(stash, qj)
		if s.cfg.StrictOrder {
			break
		}
	}
	for _, qj := range stash {
		s.queue.Push(qj.Job, qj.Priority)
	}
}

var _ sched.ResourceManager = (*Scheduler)(nil)
