package fairshare

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestSegmentSharesMatchAt pins the drift pass's products and the ones an
// entry carries to the entries At serves: each leaf's target product and
// usage product (folded down the tree by SegmentShares, and by At into
// Target and Actual) must equal, bitwise, the left-to-right fold of the
// full-depth slices At() serves, over random trees and after incremental
// Applies.
func TestSegmentSharesMatchAt(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, leaves := randomPolicy(rng)
		usage := map[string]float64{}
		for _, u := range leaves {
			usage[u] = rng.Float64() * 1000
		}
		cfg := DefaultConfig()
		tree := Compute(p, usage, cfg)
		ix := NewIndex(tree)
		eng := NewRecalc(tree, ix)
		// Also check an incrementally derived index, which reads a tree
		// that shares its clean subtrees with the previous snapshot's.
		_, ix2, _, err := eng.Apply(map[string]float64{leaves[0]: 1234.5})
		if err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		for _, index := range []*Index{ix, ix2} {
			seen := 0
			for s := 0; s < index.Segments(); s++ {
				lo, hi := index.SegmentRange(s)
				target, actual := make([]float64, hi-lo), make([]float64, hi-lo)
				index.SegmentShares(s, target, actual)
				for i := lo; i < hi; i++ {
					at := index.At(i)
					if index.User(i) != at.User {
						t.Fatalf("seed %d entry %d: User %q, At user %q", seed, i, index.User(i), at.User)
					}
					wantT, wantA := 1.0, 1.0
					for l := range at.PathShares {
						wantT *= at.PathShares[l]
						wantA *= at.PathUsage[l]
					}
					compareFloatSlices(t, "target/actual", []float64{target[i-lo], actual[i-lo]}, []float64{wantT, wantA})
					compareFloatSlices(t, "entry Target/Actual", []float64{at.Target, at.Actual}, []float64{wantT, wantA})
					seen++
				}
			}
			if seen != index.Len() {
				t.Fatalf("seed %d: segments cover %d entries, index has %d", seed, seen, index.Len())
			}
		}
	}
}

// TestRecalcSharesIdentityHalf verifies the sharing claim at the index
// layer: an Apply'd index holds its parent's name column, stripe tables and
// duplicate table by pointer, and the Apply'd tree's groups hold the
// leaf-count prefixes and share columns of the groups they were cloned from —
// an Apply copies nothing per leaf — and still serves what a fresh build
// serves.
func TestRecalcSharesIdentityHalf(t *testing.T) {
	p, usage := buildAwkward(9, 12)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	usage["u2_2"] += 7
	gotTree, gotIx, st, err := eng.Apply(map[string]float64{"u2_2": usage["u2_2"]})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.DirtyLeaves != 1 || st.ClonedNodes < 3 {
		t.Fatalf("DirtyLeaves = %d, ClonedNodes = %d, want 1 and a spine of 3 or more", st.DirtyLeaves, st.ClonedNodes)
	}
	if &gotIx.users[0] != &ix.users[0] {
		t.Error("Apply copied the name column instead of sharing it")
	}
	for s := range gotIx.stripes {
		if reflect.ValueOf(gotIx.stripes[s]).Field(0).Pointer() != reflect.ValueOf(ix.stripes[s]).Field(0).Pointer() {
			t.Errorf("Apply copied stripe table %d instead of sharing it", s)
		}
	}
	if ix.dups == nil || reflect.ValueOf(gotIx.dups).Pointer() != reflect.ValueOf(ix.dups).Pointer() {
		t.Error("Apply copied the duplicate table instead of sharing it")
	}
	got, want := prefixes(gotTree.root), prefixes(tree.root)
	if len(got) != len(want) || len(want) < 2 {
		t.Fatalf("%d prefixes after Apply, %d before, want the same, and several", len(got), len(want))
	}
	for i := range want {
		if &got[i][0] != &want[i][0] {
			t.Errorf("Apply copied leaf-count prefix %d instead of sharing it", i)
		}
	}
	if &gotTree.root.shares[0] != &tree.root.shares[0] {
		t.Error("the root's clone copied its share column instead of sharing it")
	}
	if gotIx.root != gotTree.root || gotTree.root == tree.root {
		t.Error("the Apply'd index does not read the Apply'd tree")
	}
	compareIndexes(t, gotIx, NewIndex(Compute(p, usage, cfg)))
}

// prefixes returns the leaf-count prefixes of the groups below g, g
// included, that have one, in DFS order.
func prefixes(g *group) [][]int32 {
	var out [][]int32
	if g.prefix != nil {
		out = append(out, g.prefix)
	}
	for _, s := range g.sub {
		if s != nil {
			out = append(out, prefixes(s)...)
		}
	}
	return out
}

// TestRecalcTopLevelLeafSegments covers the degenerate segment shape: users
// attached directly to the root form one-leaf segments, and a shift in the
// root group's usage must move their leaf priority even when their own
// usage never changed.
func TestRecalcTopLevelLeafSegments(t *testing.T) {
	p := policy.NewTree()
	if _, err := p.Add("", "solo", 2); err != nil { // top-level user leaf
		t.Fatal(err)
	}
	if _, err := p.Add("", "g", 3); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b"} {
		if _, err := p.Add("/g", u, 1); err != nil {
			t.Fatal(err)
		}
	}
	usage := map[string]float64{"solo": 10, "a": 5, "b": 20}
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	// Dirty a grouped user: the root denominator shifts, so solo's priority
	// changes without solo itself being dirty.
	for step, delta := range []map[string]float64{
		{"a": 500.0},
		{"solo": 123.0}, // dirty the top-level leaf itself
		{"solo": 0, "b": 1},
	} {
		for u, v := range delta {
			usage[u] = v
		}
		gotTree, gotIx, _, err := eng.Apply(delta)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		wantTree := Compute(p, usage, cfg)
		compareTrees(t, gotTree, wantTree)
		compareIndexes(t, gotIx, NewIndex(wantTree))
	}
}

// TestRecalcDetectsShapeCorruption: when the engine's tree no longer has
// the shape its index describes (here: a leaf removed behind the engine's
// back, or the pair handed to Reset built from different trees), Apply must
// return an error instead of publishing a torn snapshot, and must leave the
// engine unchanged so the caller can fall back to a full rebuild.
func TestRecalcDetectsShapeCorruption(t *testing.T) {
	p, usage := buildWide(4, 6)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	// Corrupt the tree shape: drop the last leaf of group g001, then dirty
	// another leaf of the same group so the fold counts its leaves again.
	g := tree.root.sub[1]
	g.usage = g.usage[:len(g.usage)-1]

	_, _, _, err := eng.Apply(map[string]float64{"u001_000": usage["u001_000"] + 1})
	if err == nil {
		t.Fatal("Apply on a corrupted tree shape succeeded, want fold error")
	}
	if !strings.Contains(err.Error(), "incremental fold") {
		t.Fatalf("error %q does not name the incremental fold", err)
	}
	if eng.tree != tree || eng.index != ix {
		t.Fatal("engine adopted state from a failed Apply")
	}

	// A disappearing top-level subtree fails the same check.
	tree2 := Compute(p, usage, cfg)
	eng2 := NewRecalc(tree2, NewIndex(tree2))
	tree2.root.usage = tree2.root.usage[:len(tree2.root.usage)-1]
	if _, _, _, err := eng2.Apply(map[string]float64{"u000_000": 1.25}); err == nil {
		t.Fatal("Apply with a missing top-level subtree succeeded, want fold error")
	}

	// An index of another tree, even one of the same shape, is refused.
	other := Compute(p, usage, cfg)
	eng2.Reset(other, ix)
	if _, _, _, err := eng2.Apply(map[string]float64{"u000_000": 1.25}); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("Apply over a tree and another tree's index: %v, want mismatch error", err)
	}

	// The fallback path works: re-anchoring on a fresh full rebuild makes
	// the engine usable again.
	usage["u001_000"] += 1
	freshTree := Compute(p, usage, cfg)
	freshIx := NewIndex(freshTree)
	eng.Reset(freshTree, freshIx)
	gotTree, gotIx, _, err := eng.Apply(map[string]float64{"u002_002": 999})
	if err != nil {
		t.Fatalf("Apply after Reset: %v", err)
	}
	usage["u002_002"] = 999
	wantTree := Compute(p, usage, cfg)
	compareTrees(t, gotTree, wantTree)
	compareIndexes(t, gotIx, NewIndex(wantTree))
}

// TestRecalcManyDirtySegments drives Apply with dirty leaves in 70 of 80
// top-level subtrees, with GOMAXPROCS pinned above one so the parallel
// builds of the twin fan out, and checks the result against the full
// recompute bit for bit; a shape corruption in one of the subtrees still
// surfaces as an error.
func TestRecalcManyDirtySegments(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	p, usage := buildWide(80, 80)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	delta := map[string]float64{}
	for g := 0; g < 70; g++ {
		u := fmt.Sprintf("u%03d_%03d", g, g%80)
		delta[u] = usage[u] + float64(g) + 0.25
		usage[u] = delta[u]
	}
	gotTree, gotIx, st, err := eng.Apply(delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.DirtyLeaves != 70 || st.ClonedNodes != 71 {
		t.Fatalf("dirty leaves/cloned groups = %d/%d, want 70/71", st.DirtyLeaves, st.ClonedNodes)
	}
	wantTree := Compute(p, usage, cfg)
	compareTrees(t, gotTree, wantTree)
	compareIndexes(t, gotIx, NewIndex(wantTree))

	// A shape corruption surfaces as an error.
	gotTree.root.sub[5].usage = gotTree.root.sub[5].usage[:40]
	delta2 := map[string]float64{}
	for g := 0; g < 70; g++ {
		u := fmt.Sprintf("u%03d_%03d", g, (g+1)%40)
		delta2[u] = 7777.5 + float64(g)
	}
	if _, _, _, err := eng.Apply(delta2); err == nil {
		t.Fatal("Apply on a corrupted tree shape succeeded")
	}
}

// TestApplyBytesFollowDirtyGroups pins the cost model of an Apply: it
// allocates the groups it clones and the index shell, not anything per leaf
// of the subtrees it touches, nor the composed-run cache, which waits for
// the snapshot's first At. One top-level subtree of 100 × 1000 leaves is the
// shape where a per-leaf copy of the dirty subtree would cost megabytes, and
// an eagerly built cache 250 KB.
func TestApplyBytesFollowDirtyGroups(t *testing.T) {
	root := &policy.Node{Share: 1}
	vo := &policy.Node{Name: "vo", Share: 1}
	usage := map[string]float64{}
	for p := 0; p < 100; p++ {
		pn := &policy.Node{Name: fmt.Sprintf("p%03d", p), Share: 1 + float64(p%7)}
		for u := 0; u < 1000; u++ {
			name := fmt.Sprintf("u%03d_%04d", p, u)
			pn.Children = append(pn.Children, &policy.Node{Name: name, Share: 1 + float64(u%5)})
			usage[name] = float64(p*1000 + u)
		}
		vo.Children = append(vo.Children, pn)
	}
	root.Children = []*policy.Node{vo}
	tree := Compute(&policy.Tree{Root: root}, usage, DefaultConfig())
	eng := NewRecalc(tree, NewIndex(tree))
	seq := 0.0
	apply := func() {
		seq++
		if _, _, _, err := eng.Apply(map[string]float64{"u042_0123": 1e6 + seq}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	apply() // warm the scratch buffers
	perApply := measureMem(5, func() any { apply(); return nil }).bytes
	if perApply >= 32<<10 {
		t.Errorf("a one-user Apply over a 100,000-leaf subtree allocates %d bytes, want < 32 KB", perApply)
	}
	t.Logf("%d bytes per one-user Apply", perApply)
}

// TestRecalcApplySteadyStateAllocs pins the steady-state allocation cost of
// one Apply: scratch (dirty list, spine) is reused across calls, so a warmed
// engine allocates only what the immutable snapshot itself needs (cloned
// groups and the index shell; the composed-run cache waits for the first
// At).
func TestRecalcApplySteadyStateAllocs(t *testing.T) {
	p, usage := buildWide(8, 16)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	seq := 0.0
	apply := func() {
		seq++
		if _, _, _, err := eng.Apply(map[string]float64{"u003_007": 100 + seq}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	apply() // warm the scratch buffers
	// The mean over the runs, not their least, so an allocation that only
	// some Applies make (scratch that regrows now and then) still counts.
	allocs := meanAllocs(100, apply)
	// One single-user Apply on this tree allocates 7 objects: the root's
	// clone with its usage column and sub-group slice, the leaf's group's
	// clone with its usage column, the tree and the index shell. A
	// composed-run cache would be an eighth, and scratch that is not reused
	// (the dirty list, the spine) or a sort.Slice closure more again.
	if allocs > 7 {
		t.Fatalf("steady-state Apply allocates %.2f objects per op, want <= 7", allocs)
	}
	t.Logf("steady-state Apply: %.2f allocs/op", allocs)
}
