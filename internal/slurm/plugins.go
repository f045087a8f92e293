// Package slurm implements a SLURM-like local resource manager: a
// fairshare priority plug-in, job-completion plug-ins, and a
// periodic scheduling loop. The Aequus integration mirrors Section III-A:
// "the priority plug-in is based on the existing multifactor priority
// plugin, with the normal fairshare priority calculation code replaced with
// a call to libaequus. A job completion plug-in supplies usage information
// to Aequus."
package slurm

import (
	"math"
	"sync"
	"time"

	"repro/internal/libaequus"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/usage"
)

// FairshareProvider supplies the fairshare factor for a local user — the
// seam where Aequus replaces SLURM's local calculation.
type FairshareProvider interface {
	// Fairshare returns the factor in [0,1].
	Fairshare(localUser string) (float64, error)
	// Name identifies the provider.
	Name() string
}

// JobCompHandler is the job-completion plug-in interface.
type JobCompHandler interface {
	JobCompleted(j *sched.Job)
}

// AequusFairshare is the Aequus priority plug-in: the fairshare factor is a
// libaequus call-out (libaequus traces a cache miss as "lib.cache_fill").
type AequusFairshare struct {
	Lib *libaequus.Client
}

// Name implements FairshareProvider.
func (AequusFairshare) Name() string { return "aequus" }

// Fairshare implements FairshareProvider.
func (a AequusFairshare) Fairshare(localUser string) (float64, error) {
	return a.Lib.PriorityForLocalUser(localUser)
}

// AequusJobComp is the Aequus job-completion plug-in.
type AequusJobComp struct {
	Lib *libaequus.Client
}

// JobCompleted implements JobCompHandler.
func (a AequusJobComp) JobCompleted(j *sched.Job) {
	_ = a.Lib.JobComplete(j.LocalUser, j.Start, j.End.Sub(j.Start), j.Procs)
}

// LocalFairshare is the baseline: SLURM's classic local fairshare factor
// F = 2^(−U/S), where U is the user's decayed share of local usage and S the
// configured share. Only local history is considered — "each site an
// independent fairshare prioritization system where only local history is
// considered".
type LocalFairshare struct {
	clock  simclock.Clock
	decay  usage.Decay
	mu     sync.Mutex
	shares map[string]float64
	hist   *usage.Histogram
}

// NewLocalFairshare creates a local fairshare provider with normalized
// shares per local user.
func NewLocalFairshare(shares map[string]float64, decay usage.Decay, binWidth time.Duration, clock simclock.Clock) *LocalFairshare {
	if clock == nil {
		clock = simclock.Real{}
	}
	if decay == nil {
		decay = usage.None{}
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	norm := map[string]float64{}
	for u, s := range shares {
		if sum > 0 {
			norm[u] = s / sum
		}
	}
	return &LocalFairshare{
		clock:  clock,
		decay:  decay,
		shares: norm,
		hist:   usage.NewHistogram(binWidth),
	}
}

// Name implements FairshareProvider.
func (*LocalFairshare) Name() string { return "local" }

// JobCompleted records local usage (the baseline provider doubles as its own
// job-completion plug-in).
func (l *LocalFairshare) JobCompleted(j *sched.Job) {
	l.hist.AddSpread(j.LocalUser, j.Start, j.End.Sub(j.Start), j.Procs)
}

// Fairshare implements FairshareProvider.
func (l *LocalFairshare) Fairshare(localUser string) (float64, error) {
	l.mu.Lock()
	share := l.shares[localUser]
	l.mu.Unlock()
	if share <= 0 {
		return 0, nil
	}
	now := l.clock.Now()
	totals := l.hist.DecayedTotals(now, l.decay)
	var sum float64
	for _, v := range totals {
		sum += v
	}
	if sum == 0 {
		return 1, nil
	}
	u := totals[localUser] / sum
	return math.Exp2(-u / share), nil
}

// Multifactor is the multifactor priority plug-in with fairshare as its
// only factor, as in the paper's tests: "Fairshare is the only scheduling
// factor used during these tests." A job's priority is the fairshare
// call-out's value, bit for bit.
type Multifactor struct {
	// FS supplies the fairshare factor (Aequus or local; required).
	FS FairshareProvider

	mu     sync.Mutex
	errors int
}

// Priority computes a job's priority. A fairshare provider failure falls
// back to a neutral 0.5 so a temporarily unreachable Aequus never wedges the
// scheduler; failures are counted.
func (m *Multifactor) Priority(j *sched.Job) float64 {
	fs, err := m.FS.Fairshare(j.LocalUser)
	if err != nil {
		m.mu.Lock()
		m.errors++
		m.mu.Unlock()
		return 0.5
	}
	return fs
}

// Errors reports how many fairshare call-outs have failed.
func (m *Multifactor) Errors() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.errors
}
