// Package grid implements the grid-level submission layer: a submission
// host that parses an input workload and dispatches jobs to the
// participating clusters, using either stochastic or round-robin placement
// ("both stochastic and round-robin scheduling of jobs from the submitting
// node to the clusters have been evaluated without any noticeable
// difference, and the stochastic approach is used during the testing").
package grid

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/eventsim"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Dispatcher picks the target cluster index for each job.
type Dispatcher interface {
	// Pick returns an index in [0, n) for the job.
	Pick(n int, job *sched.Job) int
	// Name identifies the strategy.
	Name() string
}

// Stochastic picks a uniformly random cluster (deterministic per seed).
type Stochastic struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewStochastic creates a seeded stochastic dispatcher.
func NewStochastic(seed int64) *Stochastic {
	return &Stochastic{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Dispatcher.
func (*Stochastic) Name() string { return "stochastic" }

// Pick implements Dispatcher.
func (s *Stochastic) Pick(n int, _ *sched.Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// RoundRobin cycles through the clusters in order.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// Name implements Dispatcher.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Dispatcher.
func (r *RoundRobin) Pick(n int, _ *sched.Job) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.next % n
	r.next++
	return i
}

// Target is a cluster endpoint from the submission host's perspective: the
// local resource manager plus the mapping from grid identity to the local
// account used on that cluster.
type Target struct {
	// Name labels the site.
	Name string
	// RM is the site's resource manager.
	RM sched.ResourceManager
	// MapUser converts a grid identity to the site-local account (identity
	// function when nil).
	MapUser func(gridUser string) string
}

// SubmitHost parses workloads and feeds jobs to the clusters at their
// submit times via the event kernel.
type SubmitHost struct {
	kernel     *eventsim.Kernel
	targets    []Target
	dispatcher Dispatcher

	mu        sync.Mutex
	submitted int64
}

// NewSubmitHost creates a submission host.
func NewSubmitHost(kernel *eventsim.Kernel, targets []Target, d Dispatcher) (*SubmitHost, error) {
	if kernel == nil {
		return nil, errors.New("grid: nil kernel")
	}
	if len(targets) == 0 {
		return nil, errors.New("grid: no targets")
	}
	if d == nil {
		d = NewStochastic(1)
	}
	return &SubmitHost{
		kernel:     kernel,
		targets:    targets,
		dispatcher: d,
	}, nil
}

// SubmitNow dispatches one job immediately.
func (h *SubmitHost) SubmitNow(j *sched.Job) {
	idx := h.dispatcher.Pick(len(h.targets), j)
	t := h.targets[idx]
	if t.MapUser != nil {
		j.LocalUser = t.MapUser(j.GridUser)
	} else if j.LocalUser == "" {
		j.LocalUser = j.GridUser
	}
	t.RM.Submit(j)
	h.mu.Lock()
	h.submitted++
	h.mu.Unlock()
}

// LoadTrace schedules every job of the trace for submission at its submit
// time. Jobs before the kernel's current time are submitted at the current
// time.
func (h *SubmitHost) LoadTrace(tr *trace.Trace) {
	for i := range tr.Jobs {
		tj := tr.Jobs[i]
		job := &sched.Job{
			ID:       tj.ID,
			GridUser: tj.User,
			Procs:    tj.Procs,
			Duration: tj.Duration,
			Submit:   tj.Submit,
		}
		h.kernel.At(tj.Submit, func(now time.Time) {
			job.Submit = now
			h.SubmitNow(job)
		})
	}
}

// Submitted reports the total jobs dispatched.
func (h *SubmitHost) Submitted() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.submitted
}
