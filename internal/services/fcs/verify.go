package fcs

import (
	"fmt"
	"math"

	"repro/internal/fairshare"
)

// VerifySnapshot proves the published snapshot is bit-identical to a full
// recomputation over the same inputs: it re-derives the usage totals from
// the snapshot's own tree, rebuilds the tree, index, projections, and drift
// from scratch with Compute+NewIndex, and compares every field bitwise. It
// returns nil when they match and a first-divergence error otherwise.
//
// This is the incremental engine's ground truth — the scenario harness runs
// it after every published snapshot so any structural-sharing bug that lets
// an incremental snapshot drift from the full math fails loudly. It takes
// the refresh lock and walks the whole tree, so it is a test/debug facility,
// not a serving-path call.
func (s *Service) VerifySnapshot() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	sn := s.snap.Load()
	if sn == nil {
		return nil
	}
	totals := sn.tree.UsageByLeaf()
	twinTree := fairshare.Compute(sn.pol, totals, s.cfg.Fairshare)
	twinIx := fairshare.NewIndex(twinTree)
	twin, _ := s.buildSnapshot(twinTree, twinIx, sn.pol, sn.computedAt)
	return compareSnapshots(sn, twin)
}

// compareSnapshots reports the first bitwise divergence between a published
// snapshot and its full-recompute twin.
func compareSnapshots(got, want *snapshot) error {
	if err := compareNodes("/", got.tree.Root, want.tree.Root); err != nil {
		return err
	}
	if got.index.Len() != want.index.Len() {
		return fmt.Errorf("fcs: snapshot has %d entries, twin has %d",
			got.index.Len(), want.index.Len())
	}
	for i := 0; i < got.index.Len(); i++ {
		g, w := got.index.At(i), want.index.At(i)
		if g.User != w.User {
			return fmt.Errorf("fcs: entry %d user %q, twin %q", i, g.User, w.User)
		}
		if !bitsEqual(g.Vec, w.Vec) {
			return fmt.Errorf("fcs: entry %d (%s) vector %v, twin %v", i, g.User, g.Vec, w.Vec)
		}
		if !bitsEqual(g.PathShares, w.PathShares) {
			return fmt.Errorf("fcs: entry %d (%s) path shares %v, twin %v", i, g.User, g.PathShares, w.PathShares)
		}
		if !bitsEqual(g.PathUsage, w.PathUsage) {
			return fmt.Errorf("fcs: entry %d (%s) path usage %v, twin %v", i, g.User, g.PathUsage, w.PathUsage)
		}
		if !oneBitsEqual(g.LeafPriority, w.LeafPriority) {
			return fmt.Errorf("fcs: entry %d (%s) leaf priority %v, twin %v", i, g.User, g.LeafPriority, w.LeafPriority)
		}
		if !oneBitsEqual(got.prior[i], want.prior[i]) {
			return fmt.Errorf("fcs: entry %d (%s) projected value %v, twin %v", i, g.User, got.prior[i], want.prior[i])
		}
	}
	if !oneBitsEqual(got.driftMax, want.driftMax) || !oneBitsEqual(got.driftMean, want.driftMean) {
		return fmt.Errorf("fcs: drift max/mean %v/%v, twin %v/%v",
			got.driftMax, got.driftMean, want.driftMax, want.driftMean)
	}
	if len(got.drift) != len(want.drift) {
		return fmt.Errorf("fcs: drift table has %d entries, twin %d", len(got.drift), len(want.drift))
	}
	for i := range got.drift {
		if got.drift[i] != want.drift[i] {
			return fmt.Errorf("fcs: drift entry %d = %+v, twin %+v", i, got.drift[i], want.drift[i])
		}
	}
	return nil
}

// compareNodes checks two fairshare subtrees bitwise, returning the path of
// the first divergent node.
func compareNodes(path string, got, want *fairshare.Node) error {
	if got.Name != want.Name {
		return fmt.Errorf("fcs: node %s name %q, twin %q", path, got.Name, want.Name)
	}
	if !oneBitsEqual(got.Share, want.Share) ||
		!oneBitsEqual(got.Usage, want.Usage) ||
		!oneBitsEqual(got.UsageShare, want.UsageShare) ||
		!oneBitsEqual(got.Priority, want.Priority) ||
		!oneBitsEqual(got.Value, want.Value) {
		return fmt.Errorf("fcs: node %s fields diverge: share %v/%v usage %v/%v usageShare %v/%v priority %v/%v value %v/%v",
			path, got.Share, want.Share, got.Usage, want.Usage,
			got.UsageShare, want.UsageShare, got.Priority, want.Priority,
			got.Value, want.Value)
	}
	if len(got.Children) != len(want.Children) {
		return fmt.Errorf("fcs: node %s has %d children, twin %d", path, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		if err := compareNodes(path+got.Children[i].Name+"/", got.Children[i], want.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

func oneBitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !oneBitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
