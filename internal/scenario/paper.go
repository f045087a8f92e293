package scenario

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// TraceSpec returns the spec of one run on the paper's emulated testbed
// (Section IV): sites clusters of cores each under SLURM, the trace's jobs
// dispatched stochastically from start, a flat policy of the given shares
// (users in name order, like policy.FromShares), and every service interval
// a fixed fraction of the run — histogram bins, exchange, refresh and
// re-prioritization at dur/360, the libaequus cache at dur/720. Checks and
// samples run at dur/120, a multiple of the refresh interval, so their
// reads of a site's FCS land at instants where a refresh has just run.
// Callers adjust the returned spec before Run.
func TraceSpec(tr *trace.Trace, sites, cores int, start time.Time, dur time.Duration, shares map[string]float64, seed int64) *Spec {
	users := make([]UserSpec, 0, len(shares))
	for u, share := range shares {
		users = append(users, UserSpec{Name: u, Share: share})
	}
	sort.Slice(users, func(i, j int) bool { return users[i].Name < users[j].Name })
	jobs := make([]JobSpec, len(tr.Jobs))
	for i, j := range tr.Jobs {
		jobs[i] = JobSpec{ID: j.ID, User: j.User, SubmitOffset: j.Submit.Sub(start), Duration: j.Duration, Procs: j.Procs}
	}
	return &Spec{
		Seed:             seed,
		Sites:            sites,
		CoresPerSite:     cores,
		RM:               RMSlurm,
		Start:            start,
		Duration:         dur,
		BinWidth:         dur / 360,
		ExchangeInterval: dur / 360,
		RefreshInterval:  dur / 360,
		LibTTL:           dur / 720,
		ReprioInterval:   dur / 360,
		CheckInterval:    dur / 120,
		Users:            users,
		Jobs:             jobs,
		DistanceWeight:   0.5,
	}
}

// submitRates computes the sustained and peak submission rates (jobs per
// minute) of the jobs submitted within the run window.
func submitRates(jobs []JobSpec, dur time.Duration) (sustained, peak float64) {
	minutes := int(dur.Minutes())
	if minutes <= 0 {
		return 0, 0
	}
	bins := make([]int, minutes+1)
	n, maxBin := 0, 0
	for _, j := range jobs {
		if j.SubmitOffset < 0 || j.SubmitOffset > dur {
			continue
		}
		b := int(j.SubmitOffset.Minutes())
		bins[b]++
		maxBin = max(maxBin, bins[b])
		n++
	}
	return float64(n) / dur.Minutes(), float64(maxBin)
}

// usageSample is the cumulative usage per user at one check.
type usageSample struct {
	at     time.Time
	totals map[string]float64
}

// sample records the paper's convergence series at a check: each user's
// share of the usage consumed grid-wide within the sliding share window
// (the difference against the newest sample at least one window old), and
// each site's leaf priorities.
func (h *Harness) sample(now time.Time) {
	cur := h.CumulativeUsage()
	h.history = append(h.history, usageSample{at: now, totals: cur})
	window := h.Spec.ShareWindow
	if window <= 0 {
		window = h.Spec.Duration / 6
	}
	base := map[string]float64{}
	cutoff := now.Add(-window)
	for i := len(h.history) - 1; i >= 0; i-- {
		if !h.history[i].at.After(cutoff) {
			base = h.history[i].totals
			break
		}
	}
	// users is sorted, so the float sums are bit-identical across runs.
	var total float64
	deltas := make([]float64, len(h.users))
	for i, u := range h.users {
		if d := cur[u] - base[u]; d > 0 {
			deltas[i] = d
			total += d
		}
	}
	for i, u := range h.users {
		share := 0.0
		if total > 0 {
			share = deltas[i] / total
		}
		h.res.UsageShares.Add(u, now, share)
	}
	for i, s := range h.Sites {
		tree, err := s.FCS.Tree()
		if err != nil {
			continue
		}
		for _, u := range h.users {
			if pr, ok := tree.LeafPriority(u); ok {
				h.res.SitePriorities[i].Add(u, now, pr)
			}
		}
	}
}

// measure fills the result's paper metrics at the nominal end of the run,
// before the drain empties the queues.
func (h *Harness) measure(res *Result) {
	res.Priorities = res.SitePriorities[0]
	var util float64
	for i, cl := range h.Clusters {
		util += cl.Utilization(h.start)
		res.QueuedAtEnd += h.RMs[i].QueueLen()
	}
	res.Utilization = util / float64(len(h.Clusters))
	res.Completed = h.completed
	res.SustainedRate, res.PeakRate = submitRates(h.Spec.Jobs, h.Spec.Duration)
	res.WaitStats = h.waits.Stats()
}
