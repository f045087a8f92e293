package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/fairshare"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

var paperStart = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

// smallTrace builds a calibrated, load-scaled trace for quick tests.
func smallTrace(t testing.TB, jobs, sites, cores int, dur time.Duration, load float64, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.NationalGrid2012(dur).TestbedTrace(jobs, paperStart, dur, seed, sites*cores, load)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// paperRun builds the trace spec of a small paper run, lets mutate adjust
// it, and runs it, failing on any error or violated invariant.
func paperRun(t *testing.T, jobs, sites, cores int, dur time.Duration, load float64, seed int64, mutate func(*Spec)) *Result {
	t.Helper()
	tr := smallTrace(t, jobs, sites, cores, dur, load, seed)
	spec := TraceSpec(tr, sites, cores, paperStart, dur, baselineShares(), seed)
	if mutate != nil {
		mutate(spec)
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations:\n%v\n%s", res.Violations, res.TraceDump)
	}
	return res
}

func TestBaselineConvergence(t *testing.T) {
	t.Parallel()
	dur := 6 * time.Hour
	res := paperRun(t, 4000, 4, 24, dur, 0.95, 1, nil)
	if res.Submitted != 4000 {
		t.Errorf("submitted = %d", res.Submitted)
	}
	if res.Completed < 3000 {
		t.Errorf("completed = %d, want most of the trace", res.Completed)
	}
	// The paper reports total utilization between 93% and 97%; with a
	// smaller test we accept a looser band.
	if res.Utilization < 0.6 || res.Utilization > 1.0 {
		t.Errorf("utilization = %.3f", res.Utilization)
	}
	// Usage shares in the second half of the run should sit near the policy
	// targets for the two dominant users.
	half := paperStart.Add(dur / 2)
	for _, u := range []string{workload.U65, workload.U30} {
		target := baselineShares()[u]
		mae := metrics.MeanAbsError(res.UsageShares[u], target, half)
		if math.IsNaN(mae) || mae > 0.20 {
			t.Errorf("%s usage-share MAE = %.3f vs target %.3f", u, mae, target)
		}
	}
	// Priorities stay within the theoretical bounds.
	cfgFS := fairshare.Config{DistanceWeight: 0.5, Resolution: 10000}
	for u, s := range res.Priorities {
		bound := fairshare.MaxPriority(cfgFS, baselineShares()[u])
		for _, v := range s.Values {
			if v > bound+1e-9 || v < -1 {
				t.Fatalf("%s priority %g outside [-1, %g]", u, v, bound)
			}
		}
	}
}

func TestPartialParticipation(t *testing.T) {
	t.Parallel()
	dur := 6 * time.Hour
	res := paperRun(t, 3000, 4, 24, dur, 0.9, 2, func(s *Spec) {
		s.Modes = []SiteMode{
			{Contribute: true, UseGlobal: true},
			{Contribute: true, UseGlobal: true},
			{Contribute: false, UseGlobal: true}, // reads global, does not contribute
			{Contribute: true, UseGlobal: false}, // contributes, schedules on local only
		}
	})
	// The read-only site's priorities must track the fully participating
	// sites closely; the local-only site deviates more.
	half := paperStart.Add(dur / 2)
	diff := func(a, b metrics.PerUser, user string) float64 {
		sa, sb := a[user], b[user]
		if sa == nil || sb == nil {
			t.Fatalf("missing series for %s", user)
		}
		var sum float64
		n := 0
		for i, at := range sa.Times {
			if at.Before(half) {
				continue
			}
			v := sb.At(at)
			if math.IsNaN(v) {
				continue
			}
			sum += math.Abs(sa.Values[i] - v)
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	dReader := diff(res.SitePriorities[0], res.SitePriorities[2], workload.U65)
	dLocal := diff(res.SitePriorities[0], res.SitePriorities[3], workload.U65)
	if math.IsNaN(dReader) || math.IsNaN(dLocal) {
		t.Fatal("missing priority samples")
	}
	if dReader > dLocal {
		t.Errorf("read-only site deviation %.4f should be <= local-only %.4f", dReader, dLocal)
	}
}

func TestMauiSubstrate(t *testing.T) {
	t.Parallel()
	res := paperRun(t, 1500, 2, 16, 3*time.Hour, 0.85, 3, func(s *Spec) { s.RM = RMMaui })
	if res.Completed < 1000 {
		t.Errorf("maui completed = %d", res.Completed)
	}
	if res.Utilization < 0.4 {
		t.Errorf("maui utilization = %.3f", res.Utilization)
	}
}

// TestRunValidation: Run refuses a spec it cannot execute faithfully.
func TestRunValidation(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 1, User: "u", Submit: paperStart, Duration: time.Minute, Procs: 1}}}
	valid := func() *Spec {
		return TraceSpec(tr, 2, 4, paperStart, time.Hour, map[string]float64{"u": 1}, 1)
	}
	if res, err := Run(valid(), Options{}); err != nil || res.Failed() {
		t.Fatalf("valid spec refused: %v %v", err, res)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty jobs", func(s *Spec) { s.Jobs = nil }, "no jobs"},
		{"unknown RM", func(s *Spec) { s.RM = "pbs" }, "unknown RM"},
		{"unknown dispatch", func(s *Spec) { s.Dispatch = "nearest" }, "unknown dispatch"},
		{"mismatched modes", func(s *Spec) { s.Modes = []SiteMode{{}} }, "site modes"},
		{"invalid share", func(s *Spec) { s.Users[0].Share = -1 }, "initial policy"},
		{"job without a user", func(s *Spec) { s.Jobs[0].User = "ghost" }, "no UserSpec"},
	} {
		spec := valid()
		c.mutate(spec)
		_, err := Run(spec, Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestSubmitRates(t *testing.T) {
	var jobs []JobSpec
	for i := 0; i < 120; i++ {
		jobs = append(jobs, JobSpec{
			ID: int64(i), User: "u", Procs: 1, Duration: time.Second,
			SubmitOffset: time.Duration(i%2) * time.Minute,
		})
	}
	sustained, peak := submitRates(jobs, time.Hour)
	if math.Abs(sustained-2) > 1e-9 {
		t.Errorf("sustained = %g jobs/min", sustained)
	}
	if peak != 60 {
		t.Errorf("peak = %g jobs/min", peak)
	}
	s0, p0 := submitRates(jobs, 0)
	if s0 != 0 || p0 != 0 {
		t.Error("degenerate duration")
	}
}

// TestDeterministicRuns: a trace spec replays to the same fingerprint and
// the same sampled series.
func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	dur := 2 * time.Hour
	tr := smallTrace(t, 800, 2, 8, dur, 0.8, 4)
	spec := TraceSpec(tr, 2, 8, paperStart, dur, baselineShares(), 4)
	a, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || a.Completed != b.Completed || a.Utilization != b.Utilization {
		t.Errorf("runs diverged: %s %d/%f vs %s %d/%f",
			a.Fingerprint, a.Completed, a.Utilization, b.Fingerprint, b.Completed, b.Utilization)
	}
	sa, sb := a.UsageShares[workload.U65], b.UsageShares[workload.U65]
	if sa.Len() == 0 || sa.Len() != sb.Len() {
		t.Fatalf("sample counts %d vs %d", sa.Len(), sb.Len())
	}
	for i := range sa.Values {
		if sa.Values[i] != sb.Values[i] {
			t.Fatal("usage-share series diverged")
		}
	}
}

// TestHierarchicalPolicyRun: under a two-VO tree the sampler still
// collects every leaf user's priorities.
func TestHierarchicalPolicyRun(t *testing.T) {
	t.Parallel()
	targets := baselineShares()
	res := paperRun(t, 1200, 2, 12, 2*time.Hour, 0.9, 21, func(s *Spec) {
		s.Projects = []string{"voA", "voB"}
		s.Users = []UserSpec{
			{Name: workload.U65, Share: targets[workload.U65], Project: "voA"},
			{Name: workload.U3, Share: targets[workload.U3], Project: "voA"},
			{Name: workload.U30, Share: targets[workload.U30], Project: "voB"},
			{Name: workload.UOth, Share: targets[workload.UOth], Project: "voB"},
		}
	})
	if res.Completed < 800 {
		t.Errorf("completed = %d", res.Completed)
	}
	for _, u := range []string{workload.U65, workload.U30} {
		if res.Priorities[u] == nil || res.Priorities[u].Len() == 0 {
			t.Errorf("no priority series for %s", u)
		}
	}
}

// TestHierarchicalPolicyValidated: Run refuses a two-level tree with a
// negative leaf share under a project.
func TestHierarchicalPolicyValidated(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 1, User: "u", Submit: paperStart, Duration: time.Minute, Procs: 1}}}
	spec := TraceSpec(tr, 1, 4, paperStart, time.Hour, map[string]float64{"u": 1}, 1)
	spec.Projects = []string{"p"}
	spec.Users = []UserSpec{{Name: "u", Share: 1, Project: "p"}, {Name: "v", Share: -2, Project: "p"}}
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "initial policy") {
		t.Errorf("invalid hierarchical policy: error %v, want one mentioning %q", err, "initial policy")
	}
}

// TestWaitStatsCollected: the wait statistics cover exactly the jobs
// completed by the nominal end, the cut every paper metric shares.
func TestWaitStatsCollected(t *testing.T) {
	t.Parallel()
	res := paperRun(t, 1000, 2, 8, 2*time.Hour, 0.95, 23, nil)
	total := 0
	for _, ws := range res.WaitStats {
		total += ws.Count
		if ws.MeanWaitSeconds < 0 || ws.MeanBoundedSlowdown < 0 {
			t.Errorf("negative wait stats: %+v", ws)
		}
	}
	if int64(total) != res.Completed {
		t.Errorf("wait-stat count %d != completed %d", total, res.Completed)
	}
	if res.QueuedAtEnd == 0 || res.Completed >= res.Submitted {
		t.Errorf("at 95%% load some jobs must still wait at the nominal end: completed %d of %d, queued %d",
			res.Completed, res.Submitted, res.QueuedAtEnd)
	}
}

func TestStrictOrderConfig(t *testing.T) {
	t.Parallel()
	res := paperRun(t, 600, 1, 8, time.Hour, 0.9, 24, func(s *Spec) { s.StrictOrder = true })
	// With single-proc jobs strict order behaves like backfill; the run
	// must simply complete normally.
	if res.Completed < 400 {
		t.Errorf("strict-order completed = %d", res.Completed)
	}
}

// BenchmarkPaperRun measures a complete reduced paper run: 2,000 jobs over
// two sites with the full Aequus stack, identity resolution, exchange,
// pre-calculation and every invariant checker — the end-to-end cost per
// simulated experiment.
func BenchmarkPaperRun(b *testing.B) {
	dur := 3 * time.Hour
	spec := TraceSpec(smallTrace(b, 2000, 2, 16, dur, 0.9, 5), 2, 16, paperStart, dur, baselineShares(), 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// baselineShares is the baseline policy: the model's own usage fractions.
func baselineShares() map[string]float64 {
	return workload.NationalGrid2012(time.Hour).UsageFractions() // the fractions do not depend on the span
}
