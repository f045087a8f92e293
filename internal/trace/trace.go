// Package trace represents workload traces — sequences of batch jobs with
// submit times, durations and owning users — together with the cleaning
// filters and summary statistics the paper applies to the 2012 Swedish
// national-grid trace before modeling (Section IV).
package trace

import (
	"sort"
	"time"
)

// Job is a single batch job record. The paper's trace is comprised
// exclusively of single-processor bag-of-task jobs, but Procs is kept
// general.
type Job struct {
	// ID is a unique job identifier within the trace.
	ID int64
	// User is the grid user identity owning the job.
	User string
	// Submit is the submission time.
	Submit time.Time
	// Duration is the job's wall-clock execution time.
	Duration time.Duration
	// Procs is the number of processors the job occupies (>= 1).
	Procs int
	// Site optionally records the site where the job executed.
	Site string
	// Admin marks jobs submitted by system administrators or automated
	// monitoring, which the paper removes prior to modeling.
	Admin bool
}

// Usage returns the job's resource consumption in core-seconds.
func (j Job) Usage() float64 {
	p := j.Procs
	if p < 1 {
		p = 1
	}
	return j.Duration.Seconds() * float64(p)
}

// Trace is an ordered collection of jobs.
type Trace struct {
	Jobs []Job
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Sort orders jobs by submit time (stable, ties keep insertion order).
func (t *Trace) Sort() {
	sort.SliceStable(t.Jobs, func(i, j int) bool {
		return t.Jobs[i].Submit.Before(t.Jobs[j].Submit)
	})
}

// Span returns the first submit time and the duration from first submit to
// the last job's completion. An empty trace returns zeros.
func (t *Trace) Span() (start time.Time, span time.Duration) {
	if len(t.Jobs) == 0 {
		return time.Time{}, 0
	}
	start = t.Jobs[0].Submit
	end := start
	for _, j := range t.Jobs {
		if j.Submit.Before(start) {
			start = j.Submit
		}
		if fin := j.Submit.Add(j.Duration); fin.After(end) {
			end = fin
		}
	}
	return start, end.Sub(start)
}

// TotalUsage returns the summed core-seconds of all jobs.
func (t *Trace) TotalUsage() float64 {
	var u float64
	for _, j := range t.Jobs {
		u += j.Usage()
	}
	return u
}

// InterArrivals returns the successive submit-time gaps (in seconds) of the
// given user's jobs; pass "" for all jobs. The trace is assumed sorted.
func (t *Trace) InterArrivals(user string) []float64 {
	var prev time.Time
	first := true
	var out []float64
	for _, j := range t.Jobs {
		if user != "" && j.User != user {
			continue
		}
		if !first {
			out = append(out, j.Submit.Sub(prev).Seconds())
		}
		prev = j.Submit
		first = false
	}
	return out
}

// Durations returns the job durations (in seconds) of the given user's jobs;
// pass "" for all jobs.
func (t *Trace) Durations(user string) []float64 {
	var out []float64
	for _, j := range t.Jobs {
		if user != "" && j.User != user {
			continue
		}
		out = append(out, j.Duration.Seconds())
	}
	return out
}

// SubmitOffsets returns each job's submit time as seconds since the trace
// start, for the given user ("" for all). The trace is assumed sorted.
func (t *Trace) SubmitOffsets(user string) []float64 {
	if len(t.Jobs) == 0 {
		return nil
	}
	start, _ := t.Span()
	var out []float64
	for _, j := range t.Jobs {
		if user != "" && j.User != user {
			continue
		}
		out = append(out, j.Submit.Sub(start).Seconds())
	}
	return out
}

// Filter returns a new trace containing only jobs for which keep returns
// true.
func (t *Trace) Filter(keep func(Job) bool) *Trace {
	out := &Trace{}
	for _, j := range t.Jobs {
		if keep(j) {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// CleanReport describes what Clean removed, mirroring the paper's "about 15%
// of the total number of jobs, representing 1.5% of the total usage, were
// removed prior to modeling".
type CleanReport struct {
	// JobsRemoved and UsageRemoved count the removed jobs and core-seconds.
	JobsRemoved  int
	UsageRemoved float64
	// JobFraction and UsageFraction are the removed fractions of the input.
	JobFraction, UsageFraction float64
}

// Clean removes administrator/monitoring jobs and zero-duration jobs (the
// paper treats the latter as cancelled/failed outliers) and returns the
// cleaned trace plus a removal report.
func Clean(t *Trace) (*Trace, CleanReport) {
	totalJobs := len(t.Jobs)
	totalUsage := t.TotalUsage()
	out := t.Filter(func(j Job) bool {
		return !j.Admin && j.Duration > 0
	})
	rep := CleanReport{
		JobsRemoved: totalJobs - len(out.Jobs),
	}
	rep.UsageRemoved = totalUsage - out.TotalUsage()
	if totalJobs > 0 {
		rep.JobFraction = float64(rep.JobsRemoved) / float64(totalJobs)
	}
	if totalUsage > 0 {
		rep.UsageFraction = rep.UsageRemoved / totalUsage
	}
	return out, rep
}

// TimeScale returns a copy of the trace compressed (factor < 1) or stretched
// (factor > 1) in time around the trace start: submit offsets and durations
// are both multiplied by factor. This is the projection the paper uses to map
// long-term usage patterns onto a six-hour test window, and the 10× rescale
// of the update-delay experiment.
func (t *Trace) TimeScale(factor float64) *Trace {
	if len(t.Jobs) == 0 || factor <= 0 {
		return &Trace{Jobs: append([]Job(nil), t.Jobs...)}
	}
	start, _ := t.Span()
	out := &Trace{Jobs: make([]Job, len(t.Jobs))}
	for i, j := range t.Jobs {
		off := time.Duration(float64(j.Submit.Sub(start)) * factor)
		j.Submit = start.Add(off)
		j.Duration = time.Duration(float64(j.Duration) * factor)
		out.Jobs[i] = j
	}
	return out
}

// ScaleDurations multiplies every job duration by factor (used to scale a
// synthetic trace's load up to a target utilization).
func (t *Trace) ScaleDurations(factor float64) *Trace {
	out := &Trace{Jobs: make([]Job, len(t.Jobs))}
	for i, j := range t.Jobs {
		j.Duration = time.Duration(float64(j.Duration) * factor)
		out.Jobs[i] = j
	}
	return out
}
