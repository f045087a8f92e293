package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/usage"
	"repro/internal/vector"
	"repro/internal/workload"
)

// ablation generates the baseline workload once and returns the runner of
// its variants: each runs the baseline spec under a mutation and returns
// the mean absolute usage-share error over the second half of the run
// (lower = better convergence) plus the result.
func ablation(sc Scale) func(mutate func(*scenario.Spec)) (float64, *scenario.Result, error) {
	m := workload.NationalGrid2012(sc.Duration)
	targets := m.UsageFractions()
	tr, genErr := testbedTrace(sc, m, 0.95)
	return func(mutate func(*scenario.Spec)) (float64, *scenario.Result, error) {
		if genErr != nil {
			return 0, nil, genErr
		}
		spec := scenario.TraceSpec(tr, sc.Sites, sc.Cores, testStart, sc.Duration, targets, sc.Seed)
		mutate(spec)
		res, err := runChecked(spec)
		if err != nil {
			return 0, nil, err
		}
		var mae float64
		n := 0
		for _, u := range testUsers {
			if s := res.UsageShares[u]; s != nil {
				mae += metrics.MeanAbsError(s, targets[u], testStart.Add(sc.Duration/2))
				n++
			}
		}
		if n > 0 {
			mae /= float64(n)
		}
		return mae, res, nil
	}
}

// AblationProjection compares the three vector projections on identical
// workloads — the trade-off study Table I motivates.
func AblationProjection(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationProjection",
		Title:   "Projection algorithm ablation on the baseline workload",
		Columns: []string{"Projection", "ShareMAE(2nd half)", "Utilization"},
	}
	run := ablation(sc)
	for _, p := range vector.Projections() {
		p := p
		mae, res, err := run(func(s *scenario.Spec) { s.Projection = p })
		if err != nil {
			return nil, err
		}
		r.AddRow(p.Name(), fmtF(mae, 4), fmtF(res.Utilization, 3))
	}
	r.AddNote("paper: the percental projection is the production configuration; in-depth projection tuning is future work")
	return r, nil
}

// AblationDistanceWeight sweeps the absolute/relative distance weight k.
func AblationDistanceWeight(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationDistanceWeight",
		Title:   "Distance weight (k) sweep: relative vs absolute blend",
		Columns: []string{"k", "ShareMAE(2nd half)", "Utilization"},
	}
	run := ablation(sc)
	for _, k := range []float64{0.01, 0.25, 0.5, 0.75, 1.0} {
		k := k
		mae, res, err := run(func(s *scenario.Spec) {
			s.DistanceWeight = k
			// The percental projection bypasses the k-blended node values
			// (it recomputes target−usage directly), so the sweep uses the
			// dictionary projection, which orders by the k-dependent
			// fairshare vectors.
			s.Projection = vector.Dictionary{}
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(fmtF(k, 2), fmtF(mae, 4), fmtF(res.Utilization, 3))
	}
	r.AddNote("paper default k = 0.5: absolute and relative components weighted equally")
	r.AddNote("swept under the dictionary projection; percental recomputes target−usage and is k-invariant")
	return r, nil
}

// AblationDecay sweeps the usage decay half-life.
func AblationDecay(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationDecay",
		Title:   "Usage decay half-life sweep",
		Columns: []string{"HalfLife", "ShareMAE(2nd half)", "Utilization"},
	}
	run := ablation(sc)
	for _, frac := range []float64{1.0 / 24, 1.0 / 12, 1.0 / 6, 1.0 / 3, 1} {
		hl := time.Duration(float64(sc.Duration) * frac)
		mae, res, err := run(func(s *scenario.Spec) {
			s.Decay = usage.ExponentialHalfLife{HalfLife: hl}
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(hl.String(), fmtF(mae, 4), fmtF(res.Utilization, 3))
	}
	r.AddNote("shorter half-lives forget faster and track shifts sooner but fluctuate more")
	return r, nil
}

// AblationCacheTTL sweeps the update-delay components (libaequus cache and
// service refresh intervals together).
func AblationCacheTTL(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationCacheTTL",
		Title:   "Update-delay sweep: cache/refresh intervals (components I-IV)",
		Columns: []string{"Interval", "ShareMAE(2nd half)", "Utilization"},
	}
	run := ablation(sc)
	for _, iv := range []time.Duration{15 * time.Second, time.Minute, 5 * time.Minute, 15 * time.Minute} {
		iv := iv
		mae, res, err := run(func(s *scenario.Spec) {
			s.ExchangeInterval = iv
			s.RefreshInterval = iv
			s.LibTTL = iv / 2
			s.ReprioInterval = iv
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(iv.String(), fmtF(mae, 4), fmtF(res.Utilization, 3))
	}
	r.AddNote("paper: update and processing delays are components (I)-(IV); shorter delays shorten convergence")
	return r, nil
}

// AblationDispatch compares stochastic vs round-robin grid dispatch; the
// paper found "no noticeable difference".
func AblationDispatch(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationDispatch",
		Title:   "Dispatch strategy: stochastic vs round-robin",
		Columns: []string{"Dispatcher", "ShareMAE(2nd half)", "Utilization"},
	}
	run := ablation(sc)
	var maes []float64
	for _, d := range []scenario.DispatchKind{scenario.DispatchStochastic, scenario.DispatchRoundRobin} {
		d := d
		mae, res, err := run(func(s *scenario.Spec) { s.Dispatch = d })
		if err != nil {
			return nil, err
		}
		maes = append(maes, mae)
		r.AddRow(string(d), fmtF(mae, 4), fmtF(res.Utilization, 3))
	}
	if len(maes) == 2 {
		r.AddNote("|Δ MAE| = %.4f (paper: no noticeable difference between the strategies)", abs(maes[0]-maes[1]))
	}
	return r, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// AblationRM compares the SLURM- and Maui-like substrates under Aequus.
func AblationRM(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationRM",
		Title:   "Resource-manager substrate: SLURM-like vs Maui-like under Aequus",
		Columns: []string{"RM", "ShareMAE(2nd half)", "Utilization"},
	}
	run := ablation(sc)
	for _, rm := range []scenario.RMKind{scenario.RMSlurm, scenario.RMMaui} {
		rm := rm
		mae, res, err := run(func(s *scenario.Spec) { s.RM = rm })
		if err != nil {
			return nil, err
		}
		r.AddRow(string(rm), fmtF(mae, 4), fmtF(res.Utilization, 3))
	}
	r.AddNote("paper: Aequus integrates with both SLURM (plug-ins) and Maui (patches) with minimal intrusion")
	return r, nil
}

// Experiment is one reproducible table or figure, named by its report id.
type Experiment struct {
	ID  string
	Run func(Scale) (*Report, error)
}

// Paper lists the paper's tables and figures in paper order; Ablations
// lists the design-space sweeps beyond them.
var (
	Paper = []Experiment{
		{"tableI", func(Scale) (*Report, error) { return TableI() }},
		{"tableII", TableII},
		{"tableIII", TableIII},
		{"periodicity", Periodicity},
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"figure6", Figure6},
		{"figure7", Figure7},
		{"figure10", reportOnly(Figure10Baseline)},
		{"figure11", Figure11UpdateDelay},
		{"figure12", reportOnly(Figure12NonOptimalPolicy)},
		{"figurePartial", reportOnly(FigurePartial)},
		{"figure13", reportOnly(Figure13Bursty)},
		{"production", ProductionStats},
	}
	Ablations = []Experiment{
		{"ablationProjection", AblationProjection},
		{"ablationDistanceWeight", AblationDistanceWeight},
		{"ablationDecay", AblationDecay},
		{"ablationCacheTTL", AblationCacheTTL},
		{"ablationDispatch", AblationDispatch},
		{"ablationRM", AblationRM},
		{"ablationHierarchy", AblationHierarchy},
		{"ablationBackfill", AblationBackfill},
	}
)

// reportOnly drops the run an experiment also returns.
func reportOnly(f func(Scale) (*Report, *scenario.Result, error)) func(Scale) (*Report, error) {
	return func(sc Scale) (*Report, error) {
		r, _, err := f(sc)
		return r, err
	}
}

// All runs every experiment of Paper at the given scale and returns the
// reports in paper order.
func All(sc Scale) ([]*Report, error) {
	var out []*Report
	for _, e := range Paper {
		r, err := e.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
