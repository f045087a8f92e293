// Package cluster implements a virtual compute cluster driven by the
// discrete-event kernel: a pool of cores that runs jobs for their declared
// duration and reports completions. It mirrors the paper's testbed, where
// "actual computations are replaced with idle wait jobs to allow for large
// amounts of virtual resources being hosted on the available set of physical
// resources" — here the waiting itself is virtualized.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/eventsim"
	"repro/internal/sched"
)

// Cluster is a virtual cluster with a fixed number of cores.
type Cluster struct {
	name   string
	cores  int
	kernel *eventsim.Kernel

	mu         sync.Mutex
	freeCores  int
	running    map[int64]*sched.Job
	onComplete []func(*sched.Job)

	// busyIntegral accumulates core-seconds of occupancy up to lastChange,
	// for utilization accounting.
	busyIntegral float64
	lastChange   time.Time
	// completedByUser accumulates finished core-seconds per grid user, so
	// UsageByUser can report consumed compute including running jobs.
	completedByUser map[string]float64
}

// New creates a cluster with the given core count on the kernel's clock.
func New(name string, cores int, kernel *eventsim.Kernel) (*Cluster, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cluster: cores must be positive, got %d", cores)
	}
	if kernel == nil {
		return nil, fmt.Errorf("cluster: nil kernel")
	}
	return &Cluster{
		name:            name,
		cores:           cores,
		kernel:          kernel,
		freeCores:       cores,
		running:         map[int64]*sched.Job{},
		lastChange:      kernel.Now(),
		completedByUser: map[string]float64{},
	}, nil
}

// FreeCores returns the currently idle cores.
func (c *Cluster) FreeCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeCores
}

// RunningCount returns the number of running jobs.
func (c *Cluster) RunningCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.running)
}

// OnComplete registers a completion callback (e.g. the job-completion
// plug-in reporting usage to Aequus). Callbacks run inside the completion
// event, in registration order.
func (c *Cluster) OnComplete(fn func(*sched.Job)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onComplete = append(c.onComplete, fn)
}

// advanceIntegral must be called with the lock held before changing
// occupancy.
func (c *Cluster) advanceIntegral(now time.Time) {
	busy := c.cores - c.freeCores
	c.busyIntegral += float64(busy) * now.Sub(c.lastChange).Seconds()
	c.lastChange = now
}

// TryStart begins executing the job if enough cores are free, scheduling its
// completion on the kernel. It reports whether the job was started.
func (c *Cluster) TryStart(j *sched.Job) bool {
	procs := j.Procs
	if procs < 1 {
		procs = 1
	}
	now := c.kernel.Now()
	c.mu.Lock()
	if procs > c.freeCores || j.State != sched.Pending {
		c.mu.Unlock()
		return false
	}
	c.advanceIntegral(now)
	c.freeCores -= procs
	j.State = sched.Running
	j.Start = now
	j.Site = c.name
	c.running[j.ID] = j
	c.mu.Unlock()

	c.kernel.After(j.Duration, func(at time.Time) {
		c.complete(j, procs, at)
	})
	return true
}

func (c *Cluster) complete(j *sched.Job, procs int, at time.Time) {
	c.mu.Lock()
	c.advanceIntegral(at)
	c.freeCores += procs
	j.State = sched.Completed
	j.End = at
	delete(c.running, j.ID)
	c.completedByUser[j.GridUser] += at.Sub(j.Start).Seconds() * float64(procs)
	callbacks := append(make([]func(*sched.Job), 0, len(c.onComplete)), c.onComplete...)
	c.mu.Unlock()
	for _, fn := range callbacks {
		fn(j)
	}
}

// BusyCoreSeconds returns the cumulative core-seconds of occupancy up to the
// current simulated time.
func (c *Cluster) BusyCoreSeconds() float64 {
	now := c.kernel.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	busy := c.cores - c.freeCores
	return c.busyIntegral + float64(busy)*now.Sub(c.lastChange).Seconds()
}

// UsageByUser returns the cumulative consumed core-seconds per grid user up
// to the current simulated time, including the accrued portion of running
// jobs — the quantity behind the paper's "combined usage share" curves.
func (c *Cluster) UsageByUser() map[string]float64 {
	now := c.kernel.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.completedByUser))
	for u, v := range c.completedByUser {
		out[u] = v
	}
	// Sum running jobs in ID order so repeated runs produce bit-identical
	// floating-point results.
	ids := make([]int64, 0, len(c.running))
	for id := range c.running {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		j := c.running[id]
		procs := j.Procs
		if procs < 1 {
			procs = 1
		}
		out[j.GridUser] += now.Sub(j.Start).Seconds() * float64(procs)
	}
	return out
}

// Utilization returns the average fraction of cores busy over the window
// from start to the current simulated time.
func (c *Cluster) Utilization(start time.Time) float64 {
	now := c.kernel.Now()
	window := now.Sub(start).Seconds()
	if window <= 0 {
		return 0
	}
	return c.BusyCoreSeconds() / (float64(c.cores) * window)
}
