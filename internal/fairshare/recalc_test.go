package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/policy"
)

// randomPolicy builds a random 1–3 level policy with unique leaf names and
// returns it plus the leaf name list.
func randomPolicy(rng *rand.Rand) (*policy.Tree, []string) {
	t := policy.NewTree()
	var leaves []string
	groups := 1 + rng.Intn(4)
	uid := 0
	for g := 0; g < groups; g++ {
		gname := fmt.Sprintf("g%d", g)
		if _, err := t.Add("", gname, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
		// Some groups get a nested subgroup layer.
		nested := rng.Intn(2) == 0
		users := 1 + rng.Intn(4)
		for u := 0; u < users; u++ {
			parent := "/" + gname
			if nested && rng.Intn(2) == 0 {
				sub := "sub" + fmt.Sprint(u%2)
				if _, err := t.Lookup(parent + "/" + sub); err != nil {
					if _, err := t.Add(parent, sub, 1+rng.Float64()*3); err != nil {
						panic(err)
					}
				}
				parent = parent + "/" + sub
			}
			name := fmt.Sprintf("u%d", uid)
			uid++
			if _, err := t.Add(parent, name, 1+rng.Float64()*5); err != nil {
				panic(err)
			}
			leaves = append(leaves, name)
		}
	}
	return t, leaves
}

// walkedGroup is one group as Tree.Walk reports it, with its members copied
// out of the walk's scratch.
type walkedGroup struct {
	path    string
	usage   float64
	members []Member
}

func walkGroups(tr *Tree) []walkedGroup {
	var out []walkedGroup
	tr.Walk(func(path string, usage float64, ms []Member) {
		out = append(out, walkedGroup{path, usage, append([]Member(nil), ms...)})
	})
	return out
}

// compareTrees checks two trees group by group, every member's scores
// bitwise.
func compareTrees(t *testing.T, got, want *Tree) {
	t.Helper()
	g, w := walkGroups(got), walkGroups(want)
	if len(g) != len(w) {
		t.Fatalf("%d groups, want %d", len(g), len(w))
	}
	for k := range g {
		path := g[k].path
		if path != w[k].path || len(g[k].members) != len(w[k].members) {
			t.Fatalf("group %d: %s with %d members, want %s with %d",
				k, path, len(g[k].members), w[k].path, len(w[k].members))
		}
		if math.Float64bits(g[k].usage) != math.Float64bits(w[k].usage) {
			t.Fatalf("%s: usage %v, want %v", path, g[k].usage, w[k].usage)
		}
		for i, gm := range g[k].members {
			wm := w[k].members[i]
			if gm.Name != wm.Name || gm.Leaf != wm.Leaf {
				t.Fatalf("%s: member %d is %q (leaf %v), want %q (leaf %v)", path, i, gm.Name, gm.Leaf, wm.Name, wm.Leaf)
			}
			for _, c := range []struct {
				name string
				g, w float64
			}{
				{"Share", gm.Share, wm.Share},
				{"Usage", gm.Usage, wm.Usage},
				{"UsageShare", gm.UsageShare, wm.UsageShare},
				{"Priority", gm.Priority, wm.Priority},
				{"Value", gm.Value, wm.Value},
			} {
				if math.Float64bits(c.g) != math.Float64bits(c.w) {
					t.Fatalf("%s/%s: %s = %v (bits %x), want %v (bits %x)",
						path, gm.Name, c.name, c.g, math.Float64bits(c.g), c.w, math.Float64bits(c.w))
				}
			}
		}
	}
}

func compareIndexes(t *testing.T, got, want *Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("index lengths differ: %d vs %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if g.User != w.User {
			t.Fatalf("entry %d: user %q vs %q", i, g.User, w.User)
		}
		if math.Float64bits(g.LeafPriority) != math.Float64bits(w.LeafPriority) {
			t.Fatalf("entry %d (%s): leaf priority %v vs %v", i, g.User, g.LeafPriority, w.LeafPriority)
		}
		compareFloatSlices(t, fmt.Sprintf("entry %d (%s) Vec", i, g.User), g.Vec, w.Vec)
		compareFloatSlices(t, fmt.Sprintf("entry %d (%s) PathShares", i, g.User), g.PathShares, w.PathShares)
		compareFloatSlices(t, fmt.Sprintf("entry %d (%s) PathUsage", i, g.User), g.PathUsage, w.PathUsage)
		compareFloatSlices(t, fmt.Sprintf("entry %d (%s) Target/Actual", i, g.User), []float64{g.Target, g.Actual}, []float64{w.Target, w.Actual})
	}
	// The drift pass's columns, segment by segment.
	if got.Segments() != want.Segments() {
		t.Fatalf("segment counts differ: %d vs %d", got.Segments(), want.Segments())
	}
	for s := 0; s < want.Segments(); s++ {
		glo, ghi := got.SegmentRange(s)
		wlo, whi := want.SegmentRange(s)
		if glo != wlo || ghi != whi {
			t.Fatalf("segment %d spans [%d, %d), want [%d, %d)", s, glo, ghi, wlo, whi)
		}
		gt, ga := make([]float64, ghi-glo), make([]float64, ghi-glo)
		wt, wa := make([]float64, whi-wlo), make([]float64, whi-wlo)
		got.SegmentShares(s, gt, ga)
		want.SegmentShares(s, wt, wa)
		compareFloatSlices(t, fmt.Sprintf("segment %d target", s), gt, wt)
		compareFloatSlices(t, fmt.Sprintf("segment %d actual", s), ga, wa)
	}
	// Lookup agreement for every user present in the reference.
	for i := 0; i < want.Len(); i++ {
		u := want.At(i).User
		gp, gok := got.Pos(u)
		wp, wok := want.Pos(u)
		if gok != wok || gp != wp {
			t.Fatalf("Pos(%q): got (%d,%v) want (%d,%v)", u, gp, gok, wp, wok)
		}
	}
}

func compareFloatSlices(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (bits %x) vs %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRecalcMatchesFullRecompute is the bit-identity property test: over
// random policies, usage maps and delta sequences, the incremental engine
// must produce trees and indexes bitwise identical to a from-scratch
// Compute+NewIndex on the merged usage.
func TestRecalcMatchesFullRecompute(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, leaves := randomPolicy(rng)
		usage := map[string]float64{}
		for _, u := range leaves {
			if rng.Intn(3) > 0 {
				usage[u] = rng.Float64() * 1000
			}
		}
		cfg := Config{DistanceWeight: rng.Float64(), Resolution: 10000}
		tree := Compute(p, usage, cfg)
		ix := NewIndex(tree)
		eng := NewRecalc(tree, ix)

		for step := 0; step < 6; step++ {
			delta := map[string]float64{}
			for _, u := range leaves {
				switch rng.Intn(5) {
				case 0: // change
					delta[u] = rng.Float64() * 1000
				case 1: // zero out (user aged fully away)
					delta[u] = 0
				case 2: // bitwise no-op: resend the current value
					delta[u] = usage[u]
				}
			}
			if rng.Intn(2) == 0 {
				delta["nosuchuser"] = rng.Float64() // unknown users are ignored
			}
			for u, v := range delta {
				usage[u] = v
			}
			gotTree, gotIx, _, err := eng.Apply(delta)
			if err != nil {
				t.Fatalf("seed %d step %d: Apply: %v", seed, step, err)
			}
			wantTree := Compute(p, usage, cfg)
			wantIx := NewIndex(wantTree)
			compareTrees(t, gotTree, wantTree)
			compareIndexes(t, gotIx, wantIx)
		}
	}
}

// TestRecalcEmptyDeltaReturnsSameSnapshot pins the wholesale-reuse contract:
// deltas that change nothing bitwise return the engine's current tree and
// index pointers with zero dirty leaves.
func TestRecalcEmptyDeltaReturnsSameSnapshot(t *testing.T) {
	p, usage := buildWide(3, 4)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	for _, delta := range []map[string]float64{
		{},
		nil,
		{"u000_000": usage["u000_000"]}, // bitwise no-op
		{"ghost": 42},                   // unknown user
	} {
		gotTree, gotIx, st, err := eng.Apply(delta)
		if err != nil {
			t.Fatalf("Apply(%v): %v", delta, err)
		}
		if gotTree != tree || gotIx != ix {
			t.Fatalf("Apply(%v) built new snapshot, want wholesale reuse", delta)
		}
		if st.DirtyLeaves != 0 {
			t.Fatalf("Apply(%v): DirtyLeaves = %d, want 0", delta, st.DirtyLeaves)
		}
	}
}

// TestRecalcDoesNotMutatePriorSnapshot pins immutability: applying a delta
// must leave the previous tree and index bitwise untouched (published
// snapshots are read lock-free).
func TestRecalcDoesNotMutatePriorSnapshot(t *testing.T) {
	p, usage := buildWide(4, 5)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)

	// Deep copies of the original state for later comparison.
	wantTree := Compute(p, usage, cfg)
	wantIx := NewIndex(wantTree)

	eng := NewRecalc(tree, ix)
	if _, _, _, err := eng.Apply(map[string]float64{"u001_002": 1e6, "u003_000": 0.5}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	compareTrees(t, tree, wantTree)
	compareIndexes(t, ix, wantIx)
}

// TestRecalcSharesUntouchedSubtrees verifies the structural-sharing claim:
// after a single-user delta, sibling subtrees off the dirty path are
// pointer-shared with the previous tree.
func TestRecalcSharesUntouchedSubtrees(t *testing.T) {
	p, usage := buildWide(6, 8)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	newTree, _, st, err := eng.Apply(map[string]float64{"u002_003": usage["u002_003"] + 7})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.DirtyLeaves != 1 {
		t.Fatalf("DirtyLeaves = %d, want 1", st.DirtyLeaves)
	}
	if st.SharedNodes == 0 {
		t.Fatalf("no structural sharing: %+v", st)
	}
	// Every top-level group but the dirty one must be pointer-identical to
	// the old tree's.
	shared := 0
	for i, g := range newTree.root.sub {
		if g == tree.root.sub[i] {
			shared++
		}
	}
	if shared != len(tree.root.sub)-1 {
		t.Fatalf("%d of %d top-level groups shared across Apply, want all but the dirty one", shared, len(tree.root.sub))
	}
}

// TestRecalcDuplicateLeafNames pins the degenerate duplicate-name case: a
// delta for a duplicated name dirties every leaf carrying it, matching the
// full recompute (which feeds usage[name] to all of them).
func TestRecalcDuplicateLeafNames(t *testing.T) {
	p := policy.NewTree()
	for _, gname := range []string{"a", "b"} {
		if _, err := p.Add("", gname, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"a", "dup"}, {"a", "x"}, {"b", "dup"}, {"b", "y"}} {
		if _, err := p.Add("/"+pair[0], pair[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	usage := map[string]float64{"dup": 10, "x": 5, "y": 2}
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	usage["dup"] = 25
	gotTree, gotIx, st, err := eng.Apply(map[string]float64{"dup": 25})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.DirtyLeaves != 2 {
		t.Fatalf("DirtyLeaves = %d, want 2 (both dup leaves)", st.DirtyLeaves)
	}
	wantTree := Compute(p, usage, cfg)
	compareTrees(t, gotTree, wantTree)
	compareIndexes(t, gotIx, NewIndex(wantTree))
}

// TestRecalcLargeTreeParallelBuild runs one delta round on a tree past the
// parallel build threshold, so the parallel Compute/NewIndex paths feed the
// engine and the bit-identity property holds across them too.
func TestRecalcLargeTreeParallelBuild(t *testing.T) {
	p, usage := buildWide(80, 80) // 6400 leaves ≥ par.Threshold
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	usage["u040_017"] += 123.5
	usage["u079_000"] = 0
	gotTree, gotIx, st, err := eng.Apply(map[string]float64{
		"u040_017": usage["u040_017"],
		"u079_000": 0,
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.DirtyLeaves != 2 {
		t.Fatalf("DirtyLeaves = %d, want 2", st.DirtyLeaves)
	}
	if st.ClonedNodes >= st.SharedNodes {
		t.Fatalf("expected overwhelming structural sharing, got %+v", st)
	}
	wantTree := Compute(p, usage, cfg)
	compareTrees(t, gotTree, wantTree)
	compareIndexes(t, gotIx, NewIndex(wantTree))

	// Index lookups on the incremental index still resolve every user.
	for u := range usage {
		if _, ok := lookup(gotIx, u); !ok {
			t.Fatalf("user %q missing from incremental index", u)
		}
	}
}

// TestRecalcScratchKeepsNoNodes: the spine scratch is reused for its
// capacity only. A pointer left behind in it (the root clone ends up last
// after the depth sort, where a shorter later spine never overwrites it)
// would pin a whole superseded generation of the tree.
func TestRecalcScratchKeepsNoNodes(t *testing.T) {
	p, usage, users := buildWideDirect(8, 8)
	tree := Compute(p, usage, DefaultConfig())
	r := NewRecalc(tree, NewIndex(tree))
	wide := map[string]float64{}
	for i := 0; i < len(users); i += 3 {
		wide[users[i]] = float64(1000 + i)
	}
	for _, delta := range []map[string]float64{wide, {users[1]: 7}} {
		if _, _, _, err := r.Apply(delta); err != nil {
			t.Fatal(err)
		}
		for i, sn := range r.spineBuf[:cap(r.spineBuf)] {
			if sn.g != nil {
				t.Fatalf("spine scratch slot %d still points at group %q", i, sn.g.pol.Name)
			}
		}
	}
	if cap(r.spineBuf) == 0 {
		t.Fatal("spine scratch lost its capacity")
	}
}

// TestRecalcOwnsNoPerLeafTable: the engine is a view on the tree/index pair
// it is handed, so anchoring it costs nothing that grows with the population
// (positions, paths and leaf usage are read from the pair). Both measures
// count the whole process, so neither may read one run alone: NewRecalc's
// bytes are measureMem's least of five runs, and Reset's allocations are
// testing.AllocsPerRun's mean, at GOMAXPROCS 1.
func TestRecalcOwnsNoPerLeafTable(t *testing.T) {
	p, usage, _ := buildWideDirect(320, 320)
	tree := Compute(p, usage, DefaultConfig())
	ix := NewIndex(tree)
	var r *Recalc
	least := measureMem(5, func() any { r = NewRecalc(tree, ix); return r }).bytes
	if least >= 4<<10 {
		t.Errorf("NewRecalc over %d leaves allocated %d bytes, want < 4 KB", ix.Len(), least)
	}
	if got := testing.AllocsPerRun(100, func() { r.Reset(tree, ix) }); got != 0 {
		t.Errorf("Reset allocates %g objects per call, want 0", got)
	}
}

// TestComputeHoldsGroupsOnly pins what the tree costs: Compute allocates per
// group, not per leaf, and a leaf holds one float of its group's usage
// column and one of its share column, ≈20 bytes per leaf in use at 1,000
// groups × 100 leaves (≈10 before the share column). A node per leaf would
// cost at least one allocation and ≈100 bytes per leaf.
func TestComputeHoldsGroupsOnly(t *testing.T) {
	const groups, perGroup = 1000, 100
	p, usage, _ := buildWideDirect(groups, perGroup)
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(3, func() { Compute(p, usage, cfg) })
	if allocs > 4*groups {
		t.Errorf("Compute over %d groups × %d leaves allocates %.0f objects, want ≤ %d", groups, perGroup, allocs, 4*groups)
	}
	perLeaf := float64(measureMem(3, func() any { return Compute(p, usage, cfg) }).live) / (groups * perGroup)
	if perLeaf > 24 {
		t.Errorf("the tree holds %.1f bytes per leaf in use, want ≤ 24", perLeaf)
	}
	t.Logf("Compute: %.0f allocations, %.1f bytes per leaf in use", allocs, perLeaf)
}
