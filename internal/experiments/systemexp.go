package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

var testStart = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

var testUsers = []string{workload.U65, workload.U30, workload.U3, workload.UOth}

// testbedTrace builds the calibrated, load-scaled six-hour synthetic trace
// driving the system experiments (95% of theoretical maximum, like the
// paper's testbed runs).
func testbedTrace(sc Scale, m workload.Model, load float64) (*trace.Trace, error) {
	return m.TestbedTrace(sc.Jobs, testStart, sc.Duration, sc.Seed, sc.Sites*sc.Cores, load)
}

// paperRun generates m's trace at the scale and runs it under a flat policy
// of shares, after mutate (if any) adjusts the spec.
func paperRun(sc Scale, m workload.Model, shares map[string]float64, mutate func(*scenario.Spec)) (*scenario.Result, error) {
	tr, err := testbedTrace(sc, m, 0.95)
	if err != nil {
		return nil, err
	}
	spec := scenario.TraceSpec(tr, sc.Sites, sc.Cores, testStart, sc.Duration, shares, sc.Seed)
	if mutate != nil {
		mutate(spec)
	}
	return runChecked(spec)
}

// runChecked executes a paper run under every invariant checker; a violated
// invariant fails the experiment.
func runChecked(spec *scenario.Spec) (*scenario.Result, error) {
	res, err := scenario.Run(spec, scenario.Options{})
	if err != nil {
		return nil, err
	}
	if res.Failed() {
		return nil, fmt.Errorf("%d invariant violations, the first: %s", len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// renderRun renders a testbed result as usage-share and priority series
// rows plus convergence notes against the given targets.
func renderRun(id, title string, res *scenario.Result, targets map[string]float64) *Report {
	r := &Report{
		ID:    id,
		Title: title,
		Columns: []string{"Minute",
			"u65 share", "u30 share", "u3 share", "uoth share",
			"u65 prio", "u30 prio", "u3 prio", "uoth prio"},
	}
	// Sample the collected series every ~10 minutes of test time.
	s0 := res.UsageShares[testUsers[0]]
	if s0 != nil {
		step := s0.Len() / 36
		if step < 1 {
			step = 1
		}
		for i := 0; i < s0.Len(); i += step {
			at := s0.Times[i]
			row := []string{fmtF(at.Sub(testStart).Minutes(), 0)}
			for _, u := range testUsers {
				row = append(row, fmtF(res.UsageShares[u].Values[i], 3))
			}
			for _, u := range testUsers {
				p := res.Priorities[u]
				if p == nil {
					row = append(row, "-")
					continue
				}
				row = append(row, fmtF(p.At(at), 3))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("utilization %.1f%% (paper: 93-97%%), submitted %d, completed %d, queued at end %d",
		100*res.Utilization, res.Submitted, res.Completed, res.QueuedAtEnd)
	r.AddNote("sustained %.0f jobs/min (paper: ~120 sustained), peak %.0f jobs/min (paper: 472 peak in the bursty test)",
		res.SustainedRate, res.PeakRate)
	for _, u := range testUsers {
		target := targets[u]
		s := res.UsageShares[u]
		if s == nil {
			continue
		}
		if at, ok := metrics.ConvergenceTime(s, target, 0.08); ok {
			r.AddNote("%s usage share converged to %.3f±0.08 at minute %.0f",
				u, target, at.Sub(testStart).Minutes())
		} else {
			r.AddNote("%s usage share did not stay within ±0.08 of %.3f (final %.3f)",
				u, target, s.Last())
		}
	}
	for _, u := range testUsers {
		r.AddNote("share %-5s %s  priority %s", u,
			seriesSparkline(res.UsageShares[u], 60, 0, 1),
			seriesSparkline(res.Priorities[u], 60, -0.6, 0.8))
	}
	return r
}

// Figure10Baseline reproduces the baseline convergence test: policy targets
// equal the workload's usage shares, so usage shares and priorities converge
// toward balance.
func Figure10Baseline(sc Scale) (*Report, *scenario.Result, error) {
	m := workload.NationalGrid2012(sc.Duration)
	res, err := paperRun(sc, m, m.UsageFractions(), nil)
	if err != nil {
		return nil, nil, err
	}
	return renderRun("figure10", "Baseline convergence: policy = trace usage shares", res, m.UsageFractions()), res, nil
}

// Figure11UpdateDelay reproduces the update-delay experiment: the baseline
// case re-run with arrival times and durations scaled up 10×, keeping the
// same jobs and internal relations, so the fixed update/processing delays
// are relatively 10× shorter. The paper measures a 10-15% shorter
// convergence time (relative to test length).
func Figure11UpdateDelay(sc Scale) (*Report, error) {
	m := workload.NationalGrid2012(sc.Duration)
	targets := m.UsageFractions()
	base, err := testbedTrace(sc, m, 0.95)
	if err != nil {
		return nil, err
	}
	runWith := func(tr *trace.Trace, dur time.Duration) (*scenario.Result, error) {
		spec := scenario.TraceSpec(tr, sc.Sites, sc.Cores, testStart, dur, targets, sc.Seed)
		// Delay components stay ABSOLUTE across the two runs — that is the
		// point of the experiment: projecting a year of usage onto six
		// hours inflates the relative weight of the fixed update and
		// processing delays, and the 10x stretched run deflates it again.
		// Production-like component sizes (minutes).
		spec.BinWidth = 5 * time.Minute
		spec.ExchangeInterval = 5 * time.Minute
		spec.RefreshInterval = 5 * time.Minute
		spec.LibTTL = 150 * time.Second
		spec.ReprioInterval = 5 * time.Minute
		return runChecked(spec)
	}
	resBase, err := runWith(base, sc.Duration)
	if err != nil {
		return nil, err
	}
	scaled := base.TimeScale(10)
	resScaled, err := runWith(scaled, sc.Duration*10)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "figure11",
		Title:   "Impact of update delay: baseline vs 10x time-scaled run",
		Columns: []string{"Metric", "Baseline", "10x scaled", "Improvement"},
	}
	devBase := metrics.AggregateDeviation(resBase.UsageShares, targets)
	devScaled := metrics.AggregateDeviation(resScaled.UsageShares, targets)
	fb := firstEntryFraction(devBase, testStart, sc.Duration)
	fs := firstEntryFraction(devScaled, testStart, sc.Duration*10)
	r.AddRow("convergence (fraction of run)", fmtF(fb, 3), fmtF(fs, 3), fmtF(fb-fs, 3))
	mb := meanOf(devBase)
	ms := meanOf(devScaled)
	r.AddRow("mean aggregate share deviation", fmtF(mb, 4), fmtF(ms, 4), fmtF(mb-ms, 4))
	r.AddNote("paper: a magnitude shorter relative delays give a 10-15%% shorter convergence time vs the baseline")
	r.AddNote("convergence = first time Σ|share−target| stays below 0.30 for 3 samples, as a fraction of the run")
	if mb > 0 {
		r.AddNote("measured: relative imbalance reduction %.1f%% (mean aggregate deviation)", 100*(mb-ms)/mb)
	}
	return r, nil
}

// firstEntryFraction locates the first sustained entry of the aggregate
// deviation below 0.30 as a fraction of the run (1.0 when never).
func firstEntryFraction(dev *metrics.Series, start time.Time, dur time.Duration) float64 {
	at, ok := metrics.FirstSustainedBelow(dev, 0.30, 3)
	if !ok {
		return 1
	}
	f := at.Sub(start).Seconds() / dur.Seconds()
	return math.Max(0, math.Min(1, f))
}

func meanOf(s *metrics.Series) float64 {
	if s.Len() == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(s.Len())
}

// Figure12NonOptimalPolicy reproduces the non-optimal policy test: the
// workload keeps its natural usage shares but the policy targets are
// 70/20/8/2 — the system balances while eligible jobs exist and drifts when
// the favoured user runs out of work.
func Figure12NonOptimalPolicy(sc Scale) (*Report, *scenario.Result, error) {
	targets := workload.NonOptimalShares()
	res, err := paperRun(sc, workload.NationalGrid2012(sc.Duration), targets, nil)
	if err != nil {
		return nil, nil, err
	}
	r := renderRun("figure12", "Non-optimal policy: targets 70/20/8/2 vs trace shares 65/30/3/1.4", res, targets)
	r.AddNote("paper: close to balance in the 120-180 min range; balance is lost when U65 jobs run dry, and low-priority U30 jobs still run to maximize utilization")
	return r, res, nil
}

// FigurePartial reproduces the partial-participation test: of the sites,
// one only reads global data without contributing, and another contributes
// but schedules on local data only.
func FigurePartial(sc Scale) (*Report, *scenario.Result, error) {
	m := workload.NationalGrid2012(sc.Duration)
	readerIdx := sc.Sites - 2 // reads global, does not contribute
	localIdx := sc.Sites - 1  // contributes, prioritizes on local only
	res, err := paperRun(sc, m, m.UsageFractions(), func(s *scenario.Spec) {
		s.Modes = make([]scenario.SiteMode, sc.Sites)
		for i := range s.Modes {
			s.Modes[i] = scenario.SiteMode{Contribute: i != readerIdx, UseGlobal: i != localIdx}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	r := &Report{
		ID:      "figurePartial",
		Title:   "Partial cluster participation: per-site U65 priority",
		Columns: []string{"Minute", "full site", "read-only site", "local-only site"},
	}
	ref := res.SitePriorities[0][workload.U65]
	if ref != nil {
		step := ref.Len() / 36
		if step < 1 {
			step = 1
		}
		for i := 0; i < ref.Len(); i += step {
			at := ref.Times[i]
			r.AddRow(
				fmtF(at.Sub(testStart).Minutes(), 0),
				fmtF(ref.Values[i], 3),
				fmtF(res.SitePriorities[readerIdx][workload.U65].At(at), 3),
				fmtF(res.SitePriorities[localIdx][workload.U65].At(at), 3),
			)
		}
	}
	dReader := seriesMAD(res.SitePriorities[0][workload.U65], res.SitePriorities[readerIdx][workload.U65])
	dLocal := seriesMAD(res.SitePriorities[0][workload.U65], res.SitePriorities[localIdx][workload.U65])
	r.AddNote("mean |Δpriority| vs fully participating site: read-only %.4f, local-only %.4f", dReader, dLocal)
	r.AddNote("paper: the read-only site stays well aligned with full participants; the local-only site converges slower with more fluctuations, and its noise does not noticeably disturb the others")
	return r, res, nil
}

// seriesMAD is the mean absolute difference between two priority series
// over the second half of the run.
func seriesMAD(a, b *metrics.Series) float64 {
	if a == nil || b == nil || a.Len() == 0 {
		return math.NaN()
	}
	half := a.Times[a.Len()/2]
	var sum float64
	n := 0
	for i, at := range a.Times {
		if at.Before(half) {
			continue
		}
		v := b.At(at)
		if math.IsNaN(v) {
			continue
		}
		sum += math.Abs(a.Values[i] - v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Figure13Bursty reproduces the bursty usage test: U3's job share raised to
// 45.5% with the burst shifted to start after one third of the run. Job
// shares become 45.5/6.5/45.5/3 and usage shares 47/38.5/12/2.5; U3's
// maximum priority is bounded by 0.5·(1+0.12)=0.56.
func Figure13Bursty(sc Scale) (*Report, *scenario.Result, error) {
	m := workload.Bursty2012(sc.Duration)
	tr, err := testbedTrace(sc, m, 0.95)
	if err != nil {
		return nil, nil, err
	}
	targets := m.UsageFractions()
	res, err := runChecked(scenario.TraceSpec(tr, sc.Sites, sc.Cores, testStart, sc.Duration, targets, sc.Seed))
	if err != nil {
		return nil, nil, err
	}
	r := renderRun("figure13", "Bursty usage: U3 burst after one third of the run", res, targets)
	js := trace.JobShares(tr)
	us := trace.UsageShares(tr)
	r.AddNote("trace job shares: u65 %.3f, u30 %.3f, u3 %.3f, uoth %.3f (paper: 0.455/0.065/0.455/0.03)",
		js[workload.U65], js[workload.U30], js[workload.U3], js[workload.UOth])
	r.AddNote("trace usage shares: u65 %.3f, u30 %.3f, u3 %.3f, uoth %.3f (paper: 0.47/0.385/0.12/0.025)",
		us[workload.U65], us[workload.U30], us[workload.U3], us[workload.UOth])
	if p := res.Priorities[workload.U3]; p != nil {
		maxP := math.Inf(-1)
		for _, v := range p.Values {
			maxP = math.Max(maxP, v)
		}
		r.AddNote("max U3 priority observed %.3f (paper bound: 0.5*(1+0.12) = 0.56)", maxP)
	}
	return r, res, nil
}

// ProductionStats reproduces the Section IV production observations: a
// single-cluster deployment running for a month-scale window at HPC2N rates
// (~40,000 jobs per month) without instability.
func ProductionStats(sc Scale) (*Report, error) {
	dur := 30 * 24 * time.Hour
	jobs := 40000
	if sc.Jobs < 43200 { // quick scale: shrink proportionally
		jobs = sc.Jobs
	}
	m := workload.NationalGrid2012(dur)
	tr, err := m.Generate(workload.GenerateOptions{
		TotalJobs: jobs, Start: testStart, Span: dur, Seed: sc.Seed,
		CalibrateUsage: true, MaxDuration: dur / 10,
	})
	if err != nil {
		return nil, err
	}
	// HPC2N: 544 cores; drive at a moderate production load.
	tr = workload.ScaleToLoad(tr, 544, 0.85, dur)
	spec := scenario.TraceSpec(tr, 1, 544, testStart, dur, m.UsageFractions(), sc.Seed)
	spec.BinWidth = time.Hour
	spec.ExchangeInterval = time.Hour
	spec.RefreshInterval = 5 * time.Minute
	spec.LibTTL = time.Minute
	spec.ReprioInterval = time.Minute
	spec.CheckInterval = 6 * time.Hour
	spec.ShareWindow = 3 * 24 * time.Hour
	res, err := runChecked(spec)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "production",
		Title:   "Production-scale single-cluster run (HPC2N-like: 544 cores, month horizon)",
		Columns: []string{"Metric", "Measured", "Paper"},
	}
	r.AddRow("jobs/month", fmtF(float64(res.Completed), 0), "~40,000")
	r.AddRow("utilization", fmtF(res.Utilization, 3), "(stable production)")
	r.AddRow("queued at end", fmt.Sprintf("%d", res.QueuedAtEnd), "-")
	r.AddNote("paper: deployed alongside SLURM 2.4.3 on a 544-core cluster since start of 2013 with no noticeable impact on performance or stability")
	return r, nil
}
