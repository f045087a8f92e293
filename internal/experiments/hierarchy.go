package experiments

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// AblationHierarchy runs the baseline workload under a two-level VO policy
// instead of a flat one: the users are grouped into two virtual
// organizations whose shares match the group usage in the trace. It
// demonstrates subgroup isolation at system scale — each VO's combined usage
// converges to its group target, and the split inside a VO is enforced
// within it.
func AblationHierarchy(sc Scale) (*Report, error) {
	m := workload.NationalGrid2012(sc.Duration)
	targets := m.UsageFractions()

	// VO A: the periodic project + the bursty project; VO B: the rest. A
	// VO's share is the sum of its members' (in member order).
	voA := targets[workload.U65] + targets[workload.U3]
	voB := targets[workload.U30] + targets[workload.UOth]
	res, err := paperRun(sc, m, targets, func(s *scenario.Spec) {
		s.Projects = []string{"voA", "voB"}
		s.Users = []scenario.UserSpec{
			{Name: workload.U65, Share: targets[workload.U65], Project: "voA"},
			{Name: workload.U3, Share: targets[workload.U3], Project: "voA"},
			{Name: workload.U30, Share: targets[workload.U30], Project: "voB"},
			{Name: workload.UOth, Share: targets[workload.UOth], Project: "voB"},
		}
	})
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "ablationHierarchy",
		Title:   "Hierarchical (two-VO) policy on the baseline workload",
		Columns: []string{"Minute", "VO-A share", "VO-B share"},
	}
	sA := groupShare(res.UsageShares, workload.U65, workload.U3)
	sB := groupShare(res.UsageShares, workload.U30, workload.UOth)
	step := sA.Len() / 24
	if step < 1 {
		step = 1
	}
	for i := 0; i < sA.Len(); i += step {
		r.AddRow(fmtF(sA.Times[i].Sub(testStart).Minutes(), 0),
			fmtF(sA.Values[i], 3), fmtF(sB.Values[i], 3))
	}
	half := testStart.Add(sc.Duration / 2)
	maeA := metrics.MeanAbsError(sA, voA, half)
	maeB := metrics.MeanAbsError(sB, voB, half)
	r.AddNote("VO targets: A %.3f, B %.3f; second-half MAE: A %.4f, B %.4f", voA, voB, maeA, maeB)
	r.AddNote("the vector representation enforces fairshare top-down: VO-level balance first, then the split within each VO")
	if math.IsNaN(maeA) || math.IsNaN(maeB) {
		r.AddNote("WARNING: insufficient samples for MAE")
	}
	return r, nil
}

// groupShare sums the member series of a group into one. The sampler
// records every user at every check, so the series align sample for sample.
func groupShare(p metrics.PerUser, members ...string) *metrics.Series {
	out := &metrics.Series{}
	for i, at := range p[members[0]].Times {
		var sum float64
		for _, u := range members {
			sum += p[u].Values[i]
		}
		out.Add(at, sum)
	}
	return out
}

// AblationBackfill compares strict FIFO-by-priority against first-fit
// backfill on the baseline workload, reporting per-user mean waits.
func AblationBackfill(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "ablationBackfill",
		Title:   "Scheduling order: strict priority vs first-fit backfill",
		Columns: []string{"Mode", "Utilization", "u65 wait(s)", "u30 wait(s)", "u3 wait(s)", "MeanSlowdown(u65)"},
	}
	run := ablation(sc)
	for _, strict := range []bool{true, false} {
		strict := strict
		_, res, err := run(func(s *scenario.Spec) { s.StrictOrder = strict })
		if err != nil {
			return nil, err
		}
		mode := "backfill"
		if strict {
			mode = "strict"
		}
		ws := res.WaitStats
		r.AddRow(mode, fmtF(res.Utilization, 3),
			fmtF(ws[workload.U65].MeanWaitSeconds, 0),
			fmtF(ws[workload.U30].MeanWaitSeconds, 0),
			fmtF(ws[workload.U3].MeanWaitSeconds, 0),
			fmtF(ws[workload.U65].MeanBoundedSlowdown, 2))
	}
	r.AddNote("single-processor workload: strict order and backfill coincide unless multi-core jobs block the head")
	return r, nil
}
