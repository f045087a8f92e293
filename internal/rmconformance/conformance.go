// Package rmconformance is the shared conformance suite for the Aequus
// call-out surfaces of both resource-manager substrates. The paper
// integrates Aequus twice — as a SLURM priority/job-completion plug-in pair
// and as patches to the Maui source — and both integrations must behave
// identically at the seam: the fairshare call-out receives the local user
// identity, call-out failures degrade to a neutral priority without losing
// jobs, the completion call-out fires exactly once per job with the actual
// (start, duration, procs), and dispatch follows fairshare order with FIFO
// tie-breaking.
//
// The suite is table-driven over a Substrate factory so every behavioural
// test runs verbatim against both implementations; a divergence is a
// conformance failure of the substrate, not a test variant.
package rmconformance

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/maui"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// RM is the scheduler surface the suite drives: the grid-facing resource
// manager plus the queue snapshot used for assertions.
type RM interface {
	sched.ResourceManager
	Pending() []*sched.Job
	Submitted() int64
}

// Env is one substrate instance under test.
type Env struct {
	RM      RM
	Cluster *cluster.Cluster
	Kernel  *eventsim.Kernel
	// Errors reports the substrate's failed fairshare call-out counter.
	Errors func() int
}

// Hooks are the Aequus-facing call-outs injected into the substrate —
// the conformance surface itself.
type Hooks struct {
	// Fairshare replaces the local fairshare calculation (libaequus in
	// production).
	Fairshare func(localUser string) (float64, error)
	// JobCompleted is the usage-reporting call-out.
	JobCompleted func(j *sched.Job)
	// OnStart observes dispatches (test instrumentation, same hook the
	// scenario harness uses).
	OnStart func(j *sched.Job, priority float64, pass uint64)
}

// Substrate builds one RM implementation on a fresh cluster.
type Substrate struct {
	Name  string
	Build func(t *testing.T, cores int, h Hooks) *Env
}

// epoch is the fixed simulated time origin of every conformance scenario.
var epoch = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)

// Substrates returns the two production substrates wired exactly like the
// testbed wires them (fairshare-only priority), with the suite's hooks at
// the Aequus seams.
func Substrates() []Substrate {
	return []Substrate{
		{
			Name: "slurm",
			Build: func(t *testing.T, cores int, h Hooks) *Env {
				k := eventsim.New(epoch)
				cl, err := cluster.New("test", cores, k)
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				mf := &slurm.Multifactor{FS: fsFunc(h.Fairshare)}
				var comp []slurm.JobCompHandler
				if h.JobCompleted != nil {
					comp = append(comp, jobCompFunc(h.JobCompleted))
				}
				s := slurm.New(slurm.Config{
					Cluster:  cl,
					Priority: mf,
					JobComp:  comp,
					OnStart:  h.OnStart,
				})
				return &Env{RM: s, Cluster: cl, Kernel: k, Errors: mf.Errors}
			},
		},
		{
			Name: "maui",
			Build: func(t *testing.T, cores int, h Hooks) *Env {
				k := eventsim.New(epoch)
				cl, err := cluster.New("test", cores, k)
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				s := maui.New(maui.Config{
					Cluster: cl,
					Callouts: maui.Callouts{
						FairsharePriority: h.Fairshare,
						JobCompleted:      h.JobCompleted,
					},
					OnStart: h.OnStart,
				})
				return &Env{RM: s, Cluster: cl, Kernel: k, Errors: s.Errors}
			},
		},
	}
}

// fsFunc adapts a plain function to slurm.FairshareProvider.
type fsFunc func(localUser string) (float64, error)

func (fsFunc) Name() string { return "conformance" }
func (f fsFunc) Fairshare(u string) (float64, error) {
	if f == nil {
		return 0, errors.New("no fairshare hook")
	}
	return f(u)
}

// jobCompFunc adapts a plain function to slurm.JobCompHandler.
type jobCompFunc func(j *sched.Job)

func (f jobCompFunc) JobCompleted(j *sched.Job) { f(j) }

// Recorder captures call-out traffic for assertions. It is safe for
// concurrent use (the sim is single-threaded, but substrates may call from
// completion callbacks).
type Recorder struct {
	mu          sync.Mutex
	fairshare   []string
	completions []CompletionRecord
	starts      []StartRecord
}

// CompletionRecord is one observed JobCompleted call-out.
type CompletionRecord struct {
	JobID    int64
	User     string
	Start    time.Time
	Duration time.Duration
	Procs    int
}

// StartRecord is one observed dispatch.
type StartRecord struct {
	JobID    int64
	Priority float64
	Pass     uint64
}

// FairshareCalls returns the local-user arguments of every fairshare
// call-out so far.
func (r *Recorder) FairshareCalls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.fairshare...)
}

// Completions returns the observed completion call-outs.
func (r *Recorder) Completions() []CompletionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CompletionRecord(nil), r.completions...)
}

// Starts returns the observed dispatches in order.
func (r *Recorder) Starts() []StartRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StartRecord(nil), r.starts...)
}

// Hooks returns instrumented hooks whose fairshare factor is looked up in
// `table` (a missing user is an error — the degraded-mode path).
func (r *Recorder) Hooks(table map[string]float64) Hooks {
	return Hooks{
		Fairshare: func(u string) (float64, error) {
			r.mu.Lock()
			r.fairshare = append(r.fairshare, u)
			r.mu.Unlock()
			v, ok := table[u]
			if !ok {
				return 0, fmt.Errorf("unknown user %q", u)
			}
			return v, nil
		},
		JobCompleted: func(j *sched.Job) {
			r.mu.Lock()
			r.completions = append(r.completions, CompletionRecord{
				JobID:    j.ID,
				User:     j.LocalUser,
				Start:    j.Start,
				Duration: j.End.Sub(j.Start),
				Procs:    j.Procs,
			})
			r.mu.Unlock()
		},
		OnStart: func(j *sched.Job, priority float64, pass uint64) {
			r.mu.Lock()
			r.starts = append(r.starts, StartRecord{JobID: j.ID, Priority: priority, Pass: pass})
			r.mu.Unlock()
		},
	}
}

// Job builds a pending job owned by a local user.
func Job(id int64, user string, procs int, dur time.Duration, submit time.Time) *sched.Job {
	return &sched.Job{
		ID:        id,
		LocalUser: user,
		GridUser:  user,
		Procs:     procs,
		Duration:  dur,
		Submit:    submit,
	}
}
