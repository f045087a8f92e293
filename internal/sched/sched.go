// Package sched defines the job model and priority machinery shared by the
// SLURM- and Maui-like resource-manager substrates: job records, multifactor
// priority weights, and the pending-job queue ordered by combined priority.
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
	// QoS is an optional quality-of-service factor in [0,1].
	QoS float64
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

// Factors are the per-job priority components, each in [0,1], mirroring the
// linear factor combination both SLURM and Maui employ.
type Factors struct {
	// Fairshare is the (global or local) fairshare factor.
	Fairshare float64
	// Age is the normalized queue-wait factor.
	Age float64
	// QoS is the quality-of-service factor.
	QoS float64
	// JobSize is the normalized size factor.
	JobSize float64
}

// Weights are the configurable multipliers applied to each factor.
type Weights struct {
	Fairshare, Age, QoS, JobSize float64
}

// FairshareOnly returns the weight configuration the paper's tests use:
// "Fairshare is the only scheduling factor used during these tests."
func FairshareOnly() Weights { return Weights{Fairshare: 1} }

// Combine computes the weighted linear combination of the factors.
func (w Weights) Combine(f Factors) float64 {
	return w.Fairshare*f.Fairshare + w.Age*f.Age + w.QoS*f.QoS + w.JobSize*f.JobSize
}

// QueuedJob pairs a job with its current combined priority.
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
