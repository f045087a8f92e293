// Package sched defines the job model and priority machinery shared by the
// SLURM- and Maui-like resource-manager substrates: job records and the
// pending-job queue ordered by priority.
package sched

import (
	"sort"
	"time"
)

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	Pending State = iota
	Running
	Completed
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	default:
		return "unknown"
	}
}

// Job is a batch job inside a resource manager. The scheduler sees only the
// identity/size fields; Duration is the simulator's ground truth used to
// schedule the completion event (the paper's testbed replaces computations
// with idle wait jobs the same way).
type Job struct {
	// ID is unique within the grid.
	ID int64
	// LocalUser is the system account owning the job on this cluster.
	LocalUser string
	// GridUser is the global identity (bookkeeping; schedulers must go
	// through identity resolution rather than read this).
	GridUser string
	// Procs is the processor count (>= 1).
	Procs int
	// Duration is the job's actual runtime.
	Duration time.Duration
	// Submit, Start and End are lifecycle timestamps.
	Submit, Start, End time.Time
	// Site is the cluster the job was dispatched to.
	Site string
	// State is the current lifecycle state.
	State State
}

// WaitTime returns how long the job waited in queue (up to now for pending
// jobs).
func (j *Job) WaitTime(now time.Time) time.Duration {
	if j.State == Pending {
		return now.Sub(j.Submit)
	}
	return j.Start.Sub(j.Submit)
}

// QueuedJob pairs a job with its current priority.
type QueuedJob struct {
	Job      *Job
	Priority float64
}

// SortQueue orders jobs by descending priority; ties fall back to submit
// time (older first) then ID, so runs are deterministic.
func SortQueue(q []QueuedJob) {
	sort.SliceStable(q, func(i, j int) bool {
		if q[i].Priority != q[j].Priority {
			return q[i].Priority > q[j].Priority
		}
		if !q[i].Job.Submit.Equal(q[j].Job.Submit) {
			return q[i].Job.Submit.Before(q[j].Job.Submit)
		}
		return q[i].Job.ID < q[j].Job.ID
	})
}

// ResourceManager is the interface the grid layer and testbed drive; both
// the SLURM- and Maui-like schedulers implement it.
type ResourceManager interface {
	// Submit enqueues a job.
	Submit(j *Job)
	// QueueLen reports the number of pending jobs.
	QueueLen() int
	// RunningCount reports the number of running jobs.
	RunningCount() int
	// Schedule runs a scheduling pass at the given time.
	Schedule(now time.Time)
}
