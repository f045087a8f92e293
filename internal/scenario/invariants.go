package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/fairshare"
)

// Checker is one continuously evaluated invariant. Check runs at every
// check event (and once more at the end of the run) and returns the
// violations found at `now`. Checkers may keep state across calls (e.g. a
// cursor into the dispatch log) — Run creates a fresh set per scenario.
type Checker interface {
	Name() string
	Check(h *Harness, now time.Time) []Violation
}

// DefaultCheckers returns the full invariant suite with default tolerances.
func DefaultCheckers() []Checker {
	return []Checker{
		&ConservationChecker{},
		&SnapshotTwinChecker{},
		&LedgerChecker{},
		&DispatchOrderChecker{},
		&StarvationChecker{},
		&ConvergenceChecker{},
	}
}

// violation builds one breach of checker c found at now.
func violation(now time.Time, c Checker, format string, args ...interface{}) Violation {
	return Violation{At: now, Invariant: c.Name(), Detail: fmt.Sprintf(format, args...)}
}

// floatEq reports approximate equality under a combined absolute/relative
// tolerance.
func floatEq(a, b, absTol, relTol float64) bool {
	d := math.Abs(a - b)
	if d <= absTol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= relTol*m
}

// ConservationChecker verifies the structural invariants of every site's
// served fairshare tree: normalized sibling shares sum to one, usage shares
// sum to one wherever the group has usage (so Σ(share−usageShare) = 0 — the
// conservation of served priorities around the balance point), subtree
// usage equals the sum of its children, and every node's priority and value
// stay inside their documented ranges.
type ConservationChecker struct{}

// Name implements Checker.
func (*ConservationChecker) Name() string { return "conservation" }

// Check implements Checker.
func (c *ConservationChecker) Check(h *Harness, now time.Time) []Violation {
	var out []Violation
	add := func(site int, format string, args ...interface{}) {
		out = append(out, violation(now, c, "site %d: %s", site, fmt.Sprintf(format, args...)))
	}
	for i, site := range h.Sites {
		tree, err := site.FCS.Tree()
		if err != nil {
			add(i, "FCS tree unavailable: %v", err)
			continue
		}
		res := tree.Config.Resolution
		var walk func(n *fairshare.Node, path string)
		walk = func(n *fairshare.Node, path string) {
			if len(n.Children) == 0 {
				return
			}
			var sumShare, sumUsageShare, sumUsage, sumDist float64
			for _, ch := range n.Children {
				sumShare += ch.Share
				sumUsageShare += ch.UsageShare
				sumUsage += ch.Usage
				sumDist += ch.Share - ch.UsageShare
				if ch.Priority < -1-1e-9 || ch.Priority > 1+1e-9 {
					add(i, "node %s/%s priority %.9g outside [-1,1]", path, ch.Name, ch.Priority)
				}
				if ch.Value < 0 || ch.Value >= res {
					add(i, "node %s/%s value %.9g outside [0,%g)", path, ch.Name, ch.Value, res)
				}
			}
			if !floatEq(sumShare, 1, 1e-9, 1e-9) {
				add(i, "sibling shares under %s sum to %.12g, want 1", path, sumShare)
			}
			if sumUsage > 0 {
				if !floatEq(sumUsageShare, 1, 1e-9, 1e-9) {
					add(i, "usage shares under %s sum to %.12g with usage present, want 1", path, sumUsageShare)
				}
				if !floatEq(sumDist, 0, 1e-9, 1e-9) {
					add(i, "Σ(share−usageShare) under %s is %.12g, want 0", path, sumDist)
				}
			}
			if !floatEq(sumUsage, n.Usage, 1e-6, 1e-9) && path != "" {
				add(i, "subtree usage of %s is %.9g but children sum to %.9g", path, n.Usage, sumUsage)
			}
			for _, ch := range n.Children {
				walk(ch, path+"/"+ch.Name)
			}
		}
		walk(tree.Root, "")
	}
	return out
}

// SnapshotTwinChecker verifies the incremental-recalc guarantee: every
// published FCS snapshot — whether it came from a full rebuild or from the
// copy-on-write delta engine — must be bit-identical to a from-scratch
// recomputation of the same policy and usage sums (tree scores, index entry
// vectors, projected priorities and drift alike). Under churn and share
// edits this catches any divergence structural sharing could accumulate
// across refresh chains — with decay on as with decay off, since the sums
// the sites carry only move when a user's usage does.
type SnapshotTwinChecker struct{}

// Name implements Checker.
func (*SnapshotTwinChecker) Name() string { return "snapshot-twin" }

// Check implements Checker.
func (c *SnapshotTwinChecker) Check(h *Harness, now time.Time) []Violation {
	var out []Violation
	for i, site := range h.Sites {
		if err := site.FCS.VerifySnapshot(); err != nil {
			out = append(out, violation(now, c, "site %d: %v", i, err))
		}
	}
	return out
}

// LedgerChecker verifies ledger equivalence: each site's USS local decayed
// totals must match an independent recomputation from the harness's flat
// completion ledger. It catches lost, duplicated or phantom usage anywhere
// in the reporting pipeline (completion call-out → identity resolution →
// USS ingestion → histogram accounting).
type LedgerChecker struct {
	// AbsTol / RelTol default to 1e-6.
	AbsTol, RelTol float64
}

// Name implements Checker.
func (*LedgerChecker) Name() string { return "ledger-equivalence" }

// Check implements Checker.
func (c *LedgerChecker) Check(h *Harness, now time.Time) []Violation {
	absTol, relTol := c.AbsTol, c.RelTol
	if absTol <= 0 {
		absTol = 1e-6
	}
	if relTol <= 0 {
		relTol = 1e-6
	}
	var out []Violation
	for i, site := range h.Sites {
		got := site.USS.LocalTotals(now, h.Decay)
		want := h.Ledger.Totals(i, h.Spec.BinWidth, now, h.Decay)
		users := map[string]bool{}
		for u := range got {
			users[u] = true
		}
		for u := range want {
			users[u] = true
		}
		names := make([]string, 0, len(users))
		for u := range users {
			names = append(names, u)
		}
		sort.Strings(names)
		for _, u := range names {
			g, w := got[u], want[u]
			if !floatEq(g, w, absTol, relTol) {
				out = append(out, violation(now, c, "site %d user %s: USS local total %.9g != ledger %.9g (Δ=%.3g)",
					i, u, g, w, g-w))
			}
		}
	}
	return out
}

// DispatchOrderChecker verifies FIFO-by-priority dispatch in both RM
// substrates: within one scheduling pass, the jobs a scheduler starts come
// off its priority queue, so their dispatch priorities must be
// non-increasing, and equal-priority jobs must start in (submit time, ID)
// order — the queue's documented tie-break. It consumes the dispatch log
// incrementally across check events.
type DispatchOrderChecker struct {
	cursor int
	// last remembers the previous dispatch of each in-flight (site, pass).
	last map[[2]uint64]Dispatch
}

// Name implements Checker.
func (*DispatchOrderChecker) Name() string { return "dispatch-order" }

// Check implements Checker.
func (c *DispatchOrderChecker) Check(h *Harness, now time.Time) []Violation {
	if c.last == nil {
		c.last = map[[2]uint64]Dispatch{}
	}
	var out []Violation
	ds := h.Dispatches()
	for ; c.cursor < len(ds); c.cursor++ {
		d := ds[c.cursor]
		key := [2]uint64{uint64(d.Site), d.Pass}
		prev, seen := c.last[key]
		c.last[key] = d
		if !seen {
			continue
		}
		if d.Priority > prev.Priority {
			out = append(out, violation(now, c, "site %d pass %d: job %d (priority %.9g) started after job %d (priority %.9g)",
				d.Site, d.Pass, d.JobID, d.Priority, prev.JobID, prev.Priority))
			continue
		}
		if d.Priority == prev.Priority {
			if d.Submit.Before(prev.Submit) ||
				(d.Submit.Equal(prev.Submit) && d.JobID < prev.JobID) {
				out = append(out, violation(now, c, "site %d pass %d: equal-priority job %d (submitted %s) started after job %d (submitted %s) against FIFO order",
					d.Site, d.Pass, d.JobID, d.Submit.Format(time.RFC3339), prev.JobID, prev.Submit.Format(time.RFC3339)))
			}
		}
	}
	return out
}

// StarvationChecker verifies no-starvation: a pending job that fits the
// site's free cores must not sit in the queue for more than a grace period
// of scheduling passes — both substrates fill freed cores on completion and
// run full passes at the re-prioritization interval, so a fitting job older
// than that is stuck. Strict-order scheduling legitimately blocks the queue
// behind a non-fitting head, so the checker skips those scenarios.
type StarvationChecker struct {
	// GraceFactor multiplies ReprioInterval to form the allowed wait
	// (default 3).
	GraceFactor int
}

// Name implements Checker.
func (*StarvationChecker) Name() string { return "no-starvation" }

// Check implements Checker.
func (c *StarvationChecker) Check(h *Harness, now time.Time) []Violation {
	if h.Spec.StrictOrder {
		return nil
	}
	gf := c.GraceFactor
	if gf <= 0 {
		gf = 3
	}
	grace := time.Duration(gf) * h.Spec.ReprioInterval
	var out []Violation
	for i, rm := range h.RMs {
		free := h.Clusters[i].FreeCores()
		if free <= 0 {
			continue
		}
		pending := rm.Pending()
		// Deterministic report order.
		sort.Slice(pending, func(a, b int) bool { return pending[a].ID < pending[b].ID })
		for _, j := range pending {
			procs := j.Procs
			if procs < 1 {
				procs = 1
			}
			if procs <= free && now.Sub(j.Submit) > grace {
				out = append(out, violation(now, c, "site %d: job %d (%d procs) fits %d free cores but has waited %s (grace %s)",
					i, j.ID, procs, free, now.Sub(j.Submit), grace))
			}
		}
	}
	return out
}

// ConvergenceChecker verifies the paper's core property on calm scenarios:
// because each user's generated demand is calibrated to its policy share,
// cumulative usage shares must approach the normalized target shares once
// the run is past the horizon. Scenarios with faults, share edits, churn or
// sabotage are exempt — their targets move mid-run.
type ConvergenceChecker struct {
	// Horizon is the fraction of the run after which the invariant is
	// enforced (default 0.6).
	Horizon float64
	// Tolerance bounds the mean absolute error between usage shares and
	// target shares (default 0.2).
	Tolerance float64
}

// Name implements Checker.
func (*ConvergenceChecker) Name() string { return "convergence" }

// Check implements Checker.
func (c *ConvergenceChecker) Check(h *Harness, now time.Time) []Violation {
	if !h.Spec.ConvergenceEligible() {
		return nil
	}
	horizon := c.Horizon
	if horizon <= 0 {
		horizon = 0.6
	}
	tol := c.Tolerance
	if tol <= 0 {
		tol = 0.2
	}
	if now.Before(h.start.Add(time.Duration(horizon * float64(h.Spec.Duration)))) {
		return nil
	}
	targets := h.TargetShares()
	usage := h.CumulativeUsage()
	var total float64
	names := make([]string, 0, len(targets))
	for u := range targets {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		total += usage[u]
	}
	if total <= 0 {
		return nil
	}
	var mae float64
	for _, u := range names {
		mae += math.Abs(usage[u]/total - targets[u])
	}
	mae /= float64(len(names))
	if mae > tol {
		detail := fmt.Sprintf("usage shares diverge from policy targets: MAE %.4f > %.4f (", mae, tol)
		for i, u := range names {
			if i > 0 {
				detail += ", "
			}
			detail += fmt.Sprintf("%s %.3f→%.3f", u, targets[u], usage[u]/total)
		}
		detail += ")"
		return []Violation{violation(now, c, "%s", detail)}
	}
	return nil
}
