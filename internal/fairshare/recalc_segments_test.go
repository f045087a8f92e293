package fairshare

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestSegmentSharesMatchAt pins the prefix-interning invariant on the flat
// columns the publish pass streams: each leaf's target product and usage
// product (interned head ⊕ segment tail) must equal, bitwise, the
// left-to-right fold of the full-depth slices At() serves, over random trees
// and after incremental Applies.
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
		// Also check an incrementally derived index, whose clean segments
		// are pointer-shared with the previous snapshot's.
		_, ix2, _, err := eng.Apply(map[string]float64{leaves[0]: 1234.5})
		if err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		for _, index := range []*Index{ix, ix2} {
			seen := 0
			for s := 0; s < index.Segments(); s++ {
				lo, hi := index.SegmentRange(s)
				actual := make([]float64, hi-lo)
				target := index.SegmentShares(s, actual)
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
					seen++
				}
			}
			if seen != index.Len() {
				t.Fatalf("seed %d: segments cover %d entries, index has %d", seed, seen, index.Len())
			}
		}
	}
}

// TestRecalcSharesCleanSegmentTails verifies the segment-sharing claim at
// the index layer: after a single-user delta, every segment without a dirty
// leaf re-publishes its tail by pointer, and only the dirty segment's tail
// is a fresh arena.
func TestRecalcSharesCleanSegmentTails(t *testing.T) {
	p, usage := buildWide(6, 8)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	_, gotIx, st, err := eng.Apply(map[string]float64{"u002_003": usage["u002_003"] + 7})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.MaterializedSegments != 1 || st.SharedSegments != 5 {
		t.Fatalf("segments materialized/shared = %d/%d, want 1/5", st.MaterializedSegments, st.SharedSegments)
	}
	shared, rebuilt := 0, 0
	for s := range gotIx.tails {
		if gotIx.tails[s] == ix.tails[s] {
			shared++
		} else {
			rebuilt++
		}
	}
	if shared != 5 || rebuilt != 1 {
		t.Fatalf("tail pointers shared/rebuilt = %d/%d, want 5/1", shared, rebuilt)
	}
	// The dirty segment is the one holding u002_003.
	pos, ok := gotIx.Pos("u002_003")
	if !ok {
		t.Fatal("dirty user missing from index")
	}
	if s := gotIx.segOf[pos]; gotIx.tails[s] == ix.tails[s] {
		t.Fatalf("dirty segment %d still shares its tail", s)
	}
}

// TestRecalcTopLevelLeafSegments covers the degenerate segment shape: users
// attached directly to the root form one-leaf segments with empty tails,
// and a root-group rescore must refresh their interned leaf priority even
// when their own usage never changed.
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
		compareNodes(t, gotTree.Root, wantTree.Root, "")
		compareIndexes(t, gotIx, NewIndex(wantTree))
	}
}

// TestRecalcDetectsShapeCorruption is the phase-5 walk-failure regression
// test: when the engine's tree shape no longer matches the index layout
// (here: a leaf removed behind the engine's back), Apply must return an
// error instead of publishing a torn snapshot, and must leave the engine
// unchanged so the caller can fall back to a full rebuild.
func TestRecalcDetectsShapeCorruption(t *testing.T) {
	p, usage := buildWide(4, 6)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	// Corrupt the cloned tree shape: drop the last leaf of group g001, then
	// dirty another leaf of the same group so the walk visits it.
	g := tree.Root.Children[1]
	g.Children = g.Children[:len(g.Children)-1]

	_, _, _, err := eng.Apply(map[string]float64{"u001_000": usage["u001_000"] + 1})
	if err == nil {
		t.Fatal("Apply on a corrupted tree shape succeeded, want walk-failure error")
	}
	if !strings.Contains(err.Error(), "incremental walk") {
		t.Fatalf("error %q does not name the incremental walk", err)
	}
	if eng.tree != tree || eng.index != ix {
		t.Fatal("engine adopted state from a failed Apply")
	}

	// A disappearing top-level subtree must fail the segment-count check.
	tree2 := Compute(p, usage, cfg)
	eng2 := NewRecalc(tree2, NewIndex(tree2))
	tree2.Root.Children = tree2.Root.Children[:len(tree2.Root.Children)-1]
	if _, _, _, err := eng2.Apply(map[string]float64{"u000_000": 1.25}); err == nil {
		t.Fatal("Apply with a missing top-level subtree succeeded, want segment-count error")
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
	compareNodes(t, gotTree.Root, wantTree.Root, "")
	compareIndexes(t, gotIx, NewIndex(wantTree))
}

// TestRecalcParallelMaterialization drives Apply with enough dirty leaves
// spread over enough segments to cross par.Threshold, with
// GOMAXPROCS pinned above one so the worker pool actually fans out (the
// suite otherwise runs serial on single-core machines). Bit-identity against
// the full recompute proves the parallel and serial materialization paths
// produce the same arenas.
func TestRecalcParallelMaterialization(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	p, usage := buildWide(80, 80)
	cfg := DefaultConfig()
	tree := Compute(p, usage, cfg)
	ix := NewIndex(tree)
	eng := NewRecalc(tree, ix)

	// One dirty user in each of 70 segments: 70·80 = 5600 dirty-segment
	// leaves ≥ par.Threshold.
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
	if st.MaterializedSegments != 70 || st.SharedSegments != 10 {
		t.Fatalf("segments materialized/shared = %d/%d, want 70/10",
			st.MaterializedSegments, st.SharedSegments)
	}
	wantTree := Compute(p, usage, cfg)
	compareNodes(t, gotTree.Root, wantTree.Root, "")
	compareIndexes(t, gotIx, NewIndex(wantTree))

	// A shape corruption surfaces as an error through the worker pool too.
	gotTree.Root.Children[5].Children = gotTree.Root.Children[5].Children[:40]
	delta2 := map[string]float64{}
	for g := 0; g < 70; g++ {
		u := fmt.Sprintf("u%03d_%03d", g, (g+1)%40)
		delta2[u] = 7777.5 + float64(g)
	}
	if _, _, _, err := eng.Apply(delta2); err == nil {
		t.Fatal("Apply on a corrupted tree shape succeeded under parallel materialization")
	}
}

// TestRecalcApplySteadyStateAllocs pins the steady-state allocation cost of
// one Apply: scratch (dirty list, spine, segment marks) is reused across
// calls, so a warmed engine allocates only what the immutable snapshot
// itself needs (cloned nodes, heads, one rebuilt tail, the index shell).
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
	allocs := testing.AllocsPerRun(20, apply)
	// One single-user Apply on this tree clones one spine + one rescored
	// group (batched), rebuilds one segment tail and assembles the index
	// shell — comfortably under 40 allocations. The bound is loose enough
	// to absorb map-iteration noise but fails if per-refresh scratch reuse
	// regresses (the sort.Slice closure alone used to add several).
	if allocs > 40 {
		t.Fatalf("steady-state Apply allocates %.0f objects per op, want <= 40", allocs)
	}
	t.Logf("steady-state Apply: %.1f allocs/op", allocs)
}
