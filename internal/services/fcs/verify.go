package fcs

import (
	"fmt"
	"math"

	"repro/internal/fairshare"
	"repro/internal/telemetry/span"
)

// VerifySnapshot proves the published snapshot is bit-identical to a full
// recomputation over the same inputs: it re-derives the usage totals from
// the snapshot's own tree, rebuilds the tree and index from scratch with
// Compute+NewIndex, and compares every field bitwise — the projected values
// through the read path, and the drift summaries, which it forces on both.
// It returns nil when they match and a first-divergence error otherwise.
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
	twin, _ := s.buildSnapshot(twinTree, twinIx, sn.pol, sn.computedAt, nil)
	return compareSnapshots(sn, twin, s.cfg.Spans)
}

// compareSnapshots reports the first bitwise divergence between a published
// snapshot and its full-recompute twin. The published snapshot's drift pass,
// if this is its first, records its span into rec.
func compareSnapshots(got, want *snapshot, rec *span.Recorder) error {
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
		if !bitsEqual([]float64{g.LeafPriority, g.Target, g.Actual}, []float64{w.LeafPriority, w.Target, w.Actual}) {
			return fmt.Errorf("fcs: entry %d (%s) leaf priority, target, actual %v/%v/%v, twin %v/%v/%v",
				i, g.User, g.LeafPriority, g.Target, g.Actual, w.LeafPriority, w.Target, w.Actual)
		}
		if gv, wv := got.value(i, g), want.value(i, w); !oneBitsEqual(gv, wv) {
			return fmt.Errorf("fcs: entry %d (%s) projected value %v, twin %v", i, g.User, gv, wv)
		}
	}
	gd, wd := got.drift.get(got.index, rec), want.drift.get(want.index, nil)
	if !oneBitsEqual(gd.max, wd.max) || !oneBitsEqual(gd.mean, wd.mean) {
		return fmt.Errorf("fcs: drift max/mean %v/%v, twin %v/%v", gd.max, gd.mean, wd.max, wd.mean)
	}
	if len(gd.entries) != len(wd.entries) {
		return fmt.Errorf("fcs: drift table has %d entries, twin %d", len(gd.entries), len(wd.entries))
	}
	for i := range gd.entries {
		if gd.entries[i] != wd.entries[i] {
			return fmt.Errorf("fcs: drift entry %d = %+v, twin %+v", i, gd.entries[i], wd.entries[i])
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
