package trace

import "sort"

// UserStat summarizes one user's contribution to a trace, matching the
// headline numbers of the paper's workload characterization (e.g. U65 is
// "responsible for 65.25% of the total wall-clock time usage, and 81.03% of
// the number of submitted jobs").
type UserStat struct {
	// User is the grid user identity.
	User string
	// Jobs is the number of jobs submitted.
	Jobs int
	// Usage is the total core-seconds consumed.
	Usage float64
	// JobShare and UsageShare are this user's fractions of the trace totals.
	JobShare, UsageShare float64
}

// UserStats computes per-user statistics sorted by descending usage.
func UserStats(t *Trace) []UserStat {
	type acc struct {
		jobs  int
		usage float64
	}
	byUser := map[string]*acc{}
	var order []string
	for _, j := range t.Jobs {
		a := byUser[j.User]
		if a == nil {
			a = &acc{}
			byUser[j.User] = a
			order = append(order, j.User)
		}
		a.jobs++
		a.usage += j.Usage()
	}
	totalJobs := len(t.Jobs)
	totalUsage := t.TotalUsage()
	out := make([]UserStat, 0, len(order))
	for _, u := range order {
		a := byUser[u]
		s := UserStat{User: u, Jobs: a.jobs, Usage: a.usage}
		if totalJobs > 0 {
			s.JobShare = float64(a.jobs) / float64(totalJobs)
		}
		if totalUsage > 0 {
			s.UsageShare = a.usage / totalUsage
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Usage > out[j].Usage })
	return out
}

// UsageShares returns a map of user to usage share.
func UsageShares(t *Trace) map[string]float64 {
	out := map[string]float64{}
	for _, s := range UserStats(t) {
		out[s.User] = s.UsageShare
	}
	return out
}

// JobShares returns a map of user to submitted-job share.
func JobShares(t *Trace) map[string]float64 {
	out := map[string]float64{}
	for _, s := range UserStats(t) {
		out[s.User] = s.JobShare
	}
	return out
}
