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
	if err := compareTrees(got.tree, want.tree); err != nil {
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

// compareTrees checks two fairshare trees bitwise, group by group in walk
// order, returning the first divergent group or member. The twin's groups are
// copied out of its walk first, since a walk reuses its member scratch.
func compareTrees(got, want *fairshare.Tree) error {
	type walked struct {
		path    string
		usage   float64
		members []fairshare.Member
	}
	var twin []walked
	want.Walk(func(path string, usage float64, ms []fairshare.Member) {
		twin = append(twin, walked{path, usage, append([]fairshare.Member(nil), ms...)})
	})
	var err error
	k := 0
	got.Walk(func(path string, usage float64, ms []fairshare.Member) {
		switch {
		case err != nil:
			return
		case k == len(twin):
			err = fmt.Errorf("fcs: group %q has no twin", path)
			return
		}
		w := twin[k]
		k++
		if path != w.path || len(ms) != len(w.members) {
			err = fmt.Errorf("fcs: group %q with %d members, twin %q with %d", path, len(ms), w.path, len(w.members))
			return
		}
		if !oneBitsEqual(usage, w.usage) {
			err = fmt.Errorf("fcs: group %q usage %v, twin %v", path, usage, w.usage)
			return
		}
		for i, a := range ms {
			b := w.members[i]
			if a.Name != b.Name || a.Leaf != b.Leaf ||
				!oneBitsEqual(a.Share, b.Share) ||
				!oneBitsEqual(a.Usage, b.Usage) ||
				!oneBitsEqual(a.UsageShare, b.UsageShare) ||
				!oneBitsEqual(a.Priority, b.Priority) ||
				!oneBitsEqual(a.Value, b.Value) {
				err = fmt.Errorf("fcs: member %s/%s diverges: %+v, twin %+v", path, a.Name, a, b)
				return
			}
		}
	})
	if err == nil && k != len(twin) {
		err = fmt.Errorf("fcs: snapshot tree has %d groups, twin %d", k, len(twin))
	}
	return err
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
