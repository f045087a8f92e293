package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/vector"
)

func buildDeep(t *testing.T) (*Tree, map[string]float64) {
	t.Helper()
	p := policy.NewTree()
	mustAdd := func(parent, name string, share float64) {
		t.Helper()
		if _, err := p.Add(parent, name, share); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("", "hpc", 0.7)
	mustAdd("", "grid", 0.3)
	mustAdd("/hpc", "astro", 0.6)
	mustAdd("/hpc", "bio", 0.4)
	mustAdd("/hpc/astro", "u1", 0.5)
	mustAdd("/hpc/astro", "u2", 0.5)
	mustAdd("/hpc/bio", "u3", 1)
	mustAdd("/grid", "u4", 1)
	usage := map[string]float64{"u1": 10, "u2": 40, "u3": 25, "u4": 25}
	return Compute(p, usage, DefaultConfig()), usage
}

// lookup is the index's by-name read: the leaf position, then its entry.
func lookup(ix *Index, user string) (IndexEntry, bool) {
	i, ok := ix.Pos(user)
	if !ok {
		return IndexEntry{}, false
	}
	return ix.At(i), true
}

// TestIndexMatchesTreeWalks pins the index against the walking lookups it
// replaces: same vectors, same leaf priorities, same entry set.
func TestIndexMatchesTreeWalks(t *testing.T) {
	tree, _ := buildDeep(t)
	ix := NewIndex(tree)
	if ix.Len() != 4 {
		t.Fatalf("indexed %d users, want 4", ix.Len())
	}
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		e, ok := lookup(ix, u)
		if !ok {
			t.Fatalf("user %s missing from index", u)
		}
		vec, pri, ok := tree.Lookup(u)
		if !ok {
			t.Fatalf("user %s missing from tree", u)
		}
		if len(e.Vec) != len(vec) {
			t.Fatalf("%s: index vector %v, walk vector %v", u, e.Vec, vec)
		}
		for i := range vec {
			if e.Vec[i] != vec[i] {
				t.Errorf("%s: index vector %v, walk vector %v", u, e.Vec, vec)
			}
		}
		if e.LeafPriority != pri {
			t.Errorf("%s: index leaf priority %g, walk %g", u, e.LeafPriority, pri)
		}
		if e.User != u {
			t.Errorf("entry user %q, want %q", e.User, u)
		}
	}
	if _, ok := lookup(ix, "ghost"); ok {
		t.Error("ghost user found in index")
	}

	// The projection view must agree with Tree.Entries (same users, same
	// vectors) so projecting from the index gives identical priorities.
	fromTree := tree.Priorities(vector.Percental{})
	fromIndex := vector.Percental{}.Project(ix.Entries(), tree.Config.Resolution)
	if len(fromTree) != len(fromIndex) {
		t.Fatalf("projection cardinality: tree %d, index %d", len(fromTree), len(fromIndex))
	}
	for u, v := range fromTree {
		if fromIndex[u] != v {
			t.Errorf("%s: projection from index %g, from tree %g", u, fromIndex[u], v)
		}
	}
}

// TestLookupMatchesVectorAndLeafPriority pins the combined single-walk
// lookup against the two separate walks.
func TestLookupMatchesVectorAndLeafPriority(t *testing.T) {
	tree, _ := buildDeep(t)
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		vec, pri, ok := tree.Lookup(u)
		if !ok {
			t.Fatalf("user %s not found", u)
		}
		wantVec, _ := tree.Vector(u)
		wantPri, _ := tree.LeafPriority(u)
		if len(vec) != len(wantVec) {
			t.Fatalf("%s: Lookup vec %v, Vector %v", u, vec, wantVec)
		}
		for i := range vec {
			if vec[i] != wantVec[i] {
				t.Errorf("%s: Lookup vec %v, Vector %v", u, vec, wantVec)
			}
		}
		if pri != wantPri {
			t.Errorf("%s: Lookup priority %g, LeafPriority %g", u, pri, wantPri)
		}
	}
	if _, _, ok := tree.Lookup("ghost"); ok {
		t.Error("ghost user found")
	}
}

// TestEntriesNoAliasing pins the append-aliasing hardening: every entry
// must own its backing arrays, so mutating one entry cannot corrupt
// another (the old recursive append shared backing arrays across sibling
// iterations and was safe only by evaluation order).
func TestEntriesNoAliasing(t *testing.T) {
	tree, _ := buildDeep(t)
	entries := tree.Entries()
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Snapshot all values, then scribble over every slice of every entry.
	type copied struct{ vec, shares, usage []float64 }
	orig := make(map[string]copied, len(entries))
	for _, e := range entries {
		orig[e.User] = copied{
			vec:    append([]float64(nil), e.Vec...),
			shares: append([]float64(nil), e.PathShares...),
			usage:  append([]float64(nil), e.PathUsage...),
		}
	}
	for i := range entries {
		for j := range entries[i].Vec {
			entries[i].Vec[j] = -1
			entries[i].PathShares[j] = -1
			entries[i].PathUsage[j] = -1
		}
		// After scribbling entry i, all later entries must be intact.
		for _, later := range entries[i+1:] {
			want := orig[later.User]
			for j := range later.Vec {
				if later.Vec[j] != want.vec[j] ||
					later.PathShares[j] != want.shares[j] ||
					later.PathUsage[j] != want.usage[j] {
					t.Fatalf("mutating entry %q corrupted entry %q", entries[i].User, later.User)
				}
			}
		}
	}
	// A fresh walk must be unaffected by the scribbling above.
	fresh := tree.Entries()
	for _, e := range fresh {
		want := orig[e.User]
		for j := range e.Vec {
			if e.Vec[j] != want.vec[j] {
				t.Fatalf("entry %q aliases tree state", e.User)
			}
		}
	}
}

// TestIndexEntriesImmutableUnderReuse verifies index entries own their
// slices too: scribbling over the projection view of one entry must not
// leak into lookups of other users.
func TestIndexEntriesImmutableUnderReuse(t *testing.T) {
	tree, _ := buildDeep(t)
	ix := NewIndex(tree)
	u1, _ := lookup(ix, "u1")
	before := append([]float64(nil), u1.Vec...)
	u2, _ := lookup(ix, "u2")
	for i := range u2.Vec {
		u2.Vec[i] = -99
	}
	after, _ := lookup(ix, "u1")
	for i := range before {
		if after.Vec[i] != before[i] {
			t.Fatalf("mutating u2's vector corrupted u1's: %v vs %v", after.Vec, before)
		}
	}
}

// buildAwkward builds a policy with every shape the index build has to lay
// out: leaves hanging off the root (one-leaf segments), one-user groups,
// leaves at three depths inside one segment, and names repeated inside one
// segment, across segments, and (32 distinct repeated names) across stripes.
func buildAwkward(groups, perGroup int) (*policy.Tree, map[string]float64) {
	rng := rand.New(rand.NewSource(int64(groups*perGroup) + 1))
	usage := map[string]float64{}
	leaf := func(name string) *policy.Node {
		if rng.Intn(8) > 0 {
			usage[name] = rng.Float64() * 1e5
		}
		return &policy.Node{Name: name, Share: rng.Float64() + 0.1}
	}
	root := &policy.Node{Name: "", Share: 1}
	for g := 0; g < groups; g++ {
		if g%7 == 3 {
			root.Children = append(root.Children, leaf(fmt.Sprintf("solo%d", g)))
			continue
		}
		deep := &policy.Node{Name: "deep", Share: rng.Float64() + 0.1}
		sub := &policy.Node{Name: "sub", Share: rng.Float64() + 0.1, Children: []*policy.Node{deep}}
		gn := &policy.Node{Name: fmt.Sprintf("g%d", g), Share: rng.Float64() + 0.1}
		users := perGroup
		if g%5 == 1 {
			users = 1 // a one-user group: sub and deep stay out of it
		} else {
			gn.Children = append(gn.Children, sub)
		}
		for u := 0; u < users; u++ {
			name := fmt.Sprintf("u%d_%d", g, u)
			switch {
			case u%4 == 1:
				name = fmt.Sprintf("in%d", g) // repeated inside this segment
			case u%11 == 6:
				name = fmt.Sprintf("across%d", u%32) // repeated across segments
			}
			into := []*policy.Node{gn, sub, deep}[u%3]
			if users == 1 {
				into = gn
			}
			dup := false
			for _, c := range into.Children {
				dup = dup || c.Name == name
			}
			if !dup {
				into.Children = append(into.Children, leaf(name))
			}
		}
		if len(deep.Children) == 0 {
			deep.Children = append(deep.Children, leaf(fmt.Sprintf("d%d", g)))
		}
		root.Children = append(root.Children, gn)
	}
	return &policy.Tree{Root: root}, usage
}

// TestIndexBuildIndependentOfCores pins the single build path: whatever
// GOMAXPROCS is, and on both sides of par.Threshold, Compute yields the same
// tree bit for bit (GOMAXPROCS 1 is the plain serial loop) and NewIndex the
// same index — identity half reflect.DeepEqual, value half Float64bits-equal.
// The stripe maps and the duplicate table are also checked against a plain
// scan of the name column: the first position wins a name, repeats ascend.
func TestIndexBuildIndependentOfCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, size := range []struct{ groups, perGroup int }{{1, 1}, {9, 12}, {90, 120}} {
		p, usage := buildAwkward(size.groups, size.perGroup)
		var refTree *Tree
		var ref *Index
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tree := Compute(p, usage, DefaultConfig())
			ix := NewIndex(tree)
			if ref == nil {
				refTree, ref = tree, ix
				continue
			}
			compareNodes(t, tree.Root, refTree.Root, "")
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"users", ix.users, ref.users}, {"offs", ix.offs, ref.offs},
				{"shares", ix.shares, ref.shares}, {"target", ix.target, ref.target},
				{"path", ix.path, ref.path}, {"segs", ix.segs, ref.segs},
				{"segOf", ix.segOf, ref.segOf}, {"stripes", ix.stripes, ref.stripes},
				{"dups", ix.dups, ref.dups},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("%dx%d: %s built on %d cores differs from the one-core build",
						size.groups, size.perGroup, c.name, procs)
				}
			}
			compareFloatSlices(t, "headVec", ix.headVec, ref.headVec)
			compareFloatSlices(t, "headUsage", ix.headUsage, ref.headUsage)
			for s := range ref.tails {
				compareFloatSlices(t, "tail vec", ix.tails[s].vec, ref.tails[s].vec)
				compareFloatSlices(t, "tail usage", ix.tails[s].usage, ref.tails[s].usage)
				compareFloatSlices(t, "tail leafPrio", ix.tails[s].leafPrio, ref.tails[s].leafPrio)
			}
		}
		if above := ref.Len() >= par.Threshold; above != (size.groups == 90) {
			t.Fatalf("%dx%d has %d leaves: on the wrong side of the threshold", size.groups, size.perGroup, ref.Len())
		}
		where := map[string][]int32{}
		for i, u := range ref.users {
			where[u] = append(where[u], int32(i))
		}
		repeated, stripesUsed := 0, map[int]bool{}
		for u, ps := range where {
			if first := ref.stripes[par.Stripe(u, indexStripes)][u]; first != ps[0] {
				t.Fatalf("%q resolves to position %d, first occurrence is %d", u, first, ps[0])
			}
			if len(ps) == 1 {
				ps = nil
			} else {
				repeated++
				stripesUsed[par.Stripe(u, indexStripes)] = true
			}
			if !reflect.DeepEqual(ref.dups[u], ps) {
				t.Fatalf("%q: duplicate list %v, want %v", u, ref.dups[u], ps)
			}
		}
		if len(ref.dups) != repeated || (ref.dups == nil) != (repeated == 0) {
			t.Fatalf("duplicate table holds %d names, want %d (nil when none)", len(ref.dups), repeated)
		}
		if size.groups > 1 && len(stripesUsed) < 2 {
			t.Fatalf("repeated names fall in %d stripes, want several", len(stripesUsed))
		}
	}
}

// TestIndexPathReachesLeaf pins the path column: descending from the root by
// the child indexes of entry i reaches the leaf named User(i), with the usage
// UsageByLeaf reports — in the tree the index was built from, and in the
// tree an Apply derived, which shares the column by pointer.
func TestIndexPathReachesLeaf(t *testing.T) {
	p, usage := buildAwkward(9, 12)
	tree := Compute(p, usage, DefaultConfig())
	ix := NewIndex(tree)
	delta := map[string]float64{"in0": 77.5, "across6": 0, "solo3": 1e4, "u2_0": 12}
	tree2, ix2, st, err := NewRecalc(tree, ix).Apply(delta)
	if err != nil || st.DirtyLeaves <= len(delta) {
		t.Fatalf("Apply: %v (%d dirty leaves)", err, st.DirtyLeaves)
	}
	if &ix2.path[0] != &ix.path[0] {
		t.Fatal("Apply copied the path column instead of sharing it")
	}
	for _, c := range []struct {
		tree *Tree
		ix   *Index
	}{{tree, ix}, {tree2, ix2}} {
		want := c.tree.UsageByLeaf()
		for i := 0; i < c.ix.Len(); i++ {
			leaf := c.ix.leaf(c.tree.Root, int32(i))
			if leaf == nil || len(leaf.Children) != 0 || leaf.Name != c.ix.User(i) {
				t.Fatalf("entry %d (%s): path leads to %+v", i, c.ix.User(i), leaf)
			}
			if math.Float64bits(leaf.Usage) != math.Float64bits(want[leaf.Name]) {
				t.Fatalf("entry %d (%s): usage %v, UsageByLeaf %v", i, leaf.Name, leaf.Usage, want[leaf.Name])
			}
		}
	}
	for u, v := range delta {
		if got := tree2.UsageByLeaf()[u]; got != v {
			t.Fatalf("after Apply %s has usage %v, want %v", u, got, v)
		}
	}
}

// TestColdAtComposesOneRun pins the cost of a cold lookup to the run of
// composeRun entries around it, not the top-level subtree it sits in, and
// the composed values to the tree walk's across run and segment boundaries.
func TestColdAtComposesOneRun(t *testing.T) {
	p, usage := buildWide(2, 10000)
	tree := Compute(p, usage, DefaultConfig())
	ix := NewIndex(tree)
	const pos = 12345
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := ix.At(pos)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("one cold At on a 10000-leaf segment allocated %d bytes, want < 64 KB", got)
	}
	if e.User != ix.User(pos) {
		t.Fatalf("At(%d) is %q, want %q", pos, e.User, ix.User(pos))
	}
	if pos/composeRun != (pos^1)/composeRun {
		t.Fatal("test positions are not in one run")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = ix.At(pos ^ 1) }); allocs != 0 {
		t.Errorf("a second At in the same run allocates %v times, want 0", allocs)
	}

	// Small random trees put several segments in one run; the wide tree puts
	// many runs in one segment.
	trees := []*Tree{tree}
	for seed := int64(0); seed < 10; seed++ {
		rp, leaves := randomPolicy(rand.New(rand.NewSource(seed)))
		ru := map[string]float64{}
		for i, u := range leaves {
			ru[u] = float64(i + 1)
		}
		trees = append(trees, Compute(rp, ru, DefaultConfig()))
	}
	for ti, tr := range trees {
		index := NewIndex(tr)
		for i, want := range tr.Entries() {
			got := index.At(i)
			if got.User != want.User {
				t.Fatalf("tree %d entry %d: user %q, walk %q", ti, i, got.User, want.User)
			}
			compareFloatSlices(t, "Vec", got.Vec, want.Vec)
			compareFloatSlices(t, "PathShares", got.PathShares, want.PathShares)
			compareFloatSlices(t, "PathUsage", got.PathUsage, want.PathUsage)
		}
	}
}
