// Package workload implements the paper's user-centric workload models
// (Section IV): per-user job-arrival and job-duration distributions for the
// four dominant user groups of the 2012 Swedish national-grid trace — U65,
// U30, U3 and Uoth — plus the synthetic-trace generator that samples them
// via inverse-CDF transformation with effective-range rescaling. Its
// consumers are the simulated ones: the testbed, the paper's experiments,
// cmd/tracegen and the examples. Each group stays one user identity, as in
// the trace; load on the real HTTP path is the bench's own generator's job
// (bench/gen.go), which shares no code with this package.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/trace"
)

// UserModel describes the statistical behaviour of one user (or user group,
// since a "user" identity may represent a whole research project).
type UserModel struct {
	// Name is the grid user identity, e.g. "u65".
	Name string
	// JobFraction is the user's share of submitted jobs (sums to 1 across
	// the model's users).
	JobFraction float64
	// UsageFraction is the user's target share of total wall-clock usage.
	UsageFraction float64
	// Arrival models the submit offset in seconds from the trace start.
	// Samples are drawn by the rescaled-ICDF method of Section IV-2: the
	// uniform [0,1] input is first mapped into the effective probability
	// range [CDF(0), CDF(span)] so every arrival lands inside the window.
	Arrival dist.Dist
	// Duration models the job wall-clock duration in seconds.
	Duration dist.Dist
}

// Model is a complete workload model: one UserModel per user group.
type Model struct {
	Users []UserModel
}

// User returns the model for the named user and whether it exists.
func (m Model) User(name string) (UserModel, bool) {
	for _, u := range m.Users {
		if u.Name == name {
			return u, true
		}
	}
	return UserModel{}, false
}

// Validate checks that fractions are sane and distributions are present.
func (m Model) Validate() error {
	if len(m.Users) == 0 {
		return errors.New("workload: model has no users")
	}
	var jobSum, usageSum float64
	for _, u := range m.Users {
		if u.Name == "" {
			return errors.New("workload: user with empty name")
		}
		if u.Arrival == nil || u.Duration == nil {
			return fmt.Errorf("workload: user %s missing distributions", u.Name)
		}
		if u.JobFraction < 0 || u.UsageFraction < 0 {
			return fmt.Errorf("workload: user %s has negative fraction", u.Name)
		}
		jobSum += u.JobFraction
		usageSum += u.UsageFraction
	}
	if jobSum < 0.999 || jobSum > 1.001 {
		return fmt.Errorf("workload: job fractions sum to %.4f, want 1", jobSum)
	}
	if usageSum < 0.999 || usageSum > 1.001 {
		return fmt.Errorf("workload: usage fractions sum to %.4f, want 1", usageSum)
	}
	return nil
}

// GenerateOptions configures synthetic trace generation.
type GenerateOptions struct {
	// TotalJobs is the number of jobs to generate across all users.
	TotalJobs int
	// Start is the submit time of offset zero.
	Start time.Time
	// Span is the window into which arrivals are mapped.
	Span time.Duration
	// Seed seeds the deterministic generator.
	Seed int64
	// MinDuration / MaxDuration clamp sampled durations (zero = no clamp,
	// but durations are always forced positive: a 1-second floor avoids the
	// zero-duration outliers the paper removes).
	MinDuration, MaxDuration time.Duration
	// CalibrateUsage rescales each user's durations so per-user usage
	// shares match UsageFraction exactly (keeping total usage unchanged).
	CalibrateUsage bool
}

// Generate samples a synthetic trace from the model. Jobs are sorted by
// submit time and numbered from 1.
func (m Model) Generate(opts GenerateOptions) (*trace.Trace, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opts.TotalJobs <= 0 {
		return nil, errors.New("workload: TotalJobs must be positive")
	}
	if opts.Span <= 0 {
		return nil, errors.New("workload: Span must be positive")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	spanSec := opts.Span.Seconds()
	minDur := opts.MinDuration.Seconds()
	if minDur < 1 {
		minDur = 1
	}
	maxDur := opts.MaxDuration.Seconds()

	// Apportion job counts; the largest-fraction user absorbs rounding.
	counts := make([]int, len(m.Users))
	assigned := 0
	largest := 0
	for i, u := range m.Users {
		counts[i] = int(float64(opts.TotalJobs)*u.JobFraction + 0.5)
		assigned += counts[i]
		if u.JobFraction > m.Users[largest].JobFraction {
			largest = i
		}
	}
	counts[largest] += opts.TotalJobs - assigned
	if counts[largest] < 0 {
		return nil, errors.New("workload: job apportionment failed")
	}

	tr := &trace.Trace{}
	for i, u := range m.Users {
		lo, hi := effectiveRange(u.Arrival, spanSec)
		for k := 0; k < counts[i]; k++ {
			p := lo + rng.Float64()*(hi-lo)
			off := u.Arrival.Quantile(p)
			if off < 0 {
				off = 0
			}
			if off > spanSec {
				off = spanSec
			}
			dur := dist.Sample(u.Duration, rng)
			if dur < minDur {
				dur = minDur
			}
			if maxDur > 0 && dur > maxDur {
				dur = maxDur
			}
			tr.Jobs = append(tr.Jobs, trace.Job{
				User:     u.Name,
				Submit:   opts.Start.Add(time.Duration(off * float64(time.Second))),
				Duration: secondsToDuration(dur),
				Procs:    1, // the paper's trace is single-processor bag-of-task jobs
			})
		}
	}

	if opts.CalibrateUsage {
		calibrateUsage(tr, m)
	}

	tr.Sort()
	for i := range tr.Jobs {
		tr.Jobs[i].ID = int64(i + 1)
	}
	return tr, nil
}

// effectiveRange computes the probability window [CDF(0), CDF(span)] used to
// rescale uniform samples so every ICDF draw lands within the trace window —
// the same mechanism as the paper's U65 range [7.451e-3, 9.946e-1].
func effectiveRange(d dist.Dist, spanSec float64) (lo, hi float64) {
	lo = d.CDF(0)
	hi = d.CDF(spanSec)
	if hi <= lo { // degenerate model entirely outside the window
		return 0, 1
	}
	// Keep strictly inside (0,1) so quantiles stay finite.
	const eps = 1e-9
	if lo < eps {
		lo = eps
	}
	if hi > 1-eps {
		hi = 1 - eps
	}
	return lo, hi
}

// calibrateUsage rescales each user's durations so realized usage shares
// equal the model's UsageFraction targets while preserving total usage.
func calibrateUsage(tr *trace.Trace, m Model) {
	perUser := map[string]float64{}
	var total float64
	for _, j := range tr.Jobs {
		perUser[j.User] += j.Usage()
		total += j.Usage()
	}
	if total == 0 {
		return
	}
	factor := map[string]float64{}
	for _, u := range m.Users {
		cur := perUser[u.Name]
		if cur <= 0 {
			continue
		}
		factor[u.Name] = u.UsageFraction * total / cur
	}
	for i := range tr.Jobs {
		if f, ok := factor[tr.Jobs[i].User]; ok {
			tr.Jobs[i].Duration = secondsToDuration(tr.Jobs[i].Duration.Seconds() * f)
		}
	}
}

// secondsToDuration converts float seconds to a time.Duration, clamping into
// [1s, ~292y] so heavy-tailed duration samples (the Burr fit for U3 has an
// infinite mean) can never overflow int64 nanoseconds.
func secondsToDuration(sec float64) time.Duration {
	const maxSec = float64(1<<62) / float64(time.Second) // well inside int64 range
	if sec < 1 {
		sec = 1
	}
	if sec > maxSec {
		sec = maxSec
	}
	return time.Duration(sec * float64(time.Second))
}

// ScaleToLoad rescales all durations so total usage equals
// load × cores × span — how the paper drives its testbed at "a total load of
// 95% of the theoretical maximum of the combined infrastructure".
func ScaleToLoad(tr *trace.Trace, cores int, load float64, span time.Duration) *trace.Trace {
	total := tr.TotalUsage()
	if total <= 0 || cores <= 0 || load <= 0 || span <= 0 {
		return tr
	}
	target := load * float64(cores) * span.Seconds()
	return tr.ScaleDurations(target / total)
}

// SortedOffsets returns the sorted submit offsets (seconds) of all jobs of a
// user — a convenience for the arrival-pattern figures.
func SortedOffsets(tr *trace.Trace, user string) []float64 {
	off := tr.SubmitOffsets(user)
	sort.Float64s(off)
	return off
}
