package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/slot"
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
// tree bit for bit (GOMAXPROCS 1 is the plain serial loop), with the same
// leaf-count prefixes, and NewIndex the same index — name column, stripe and
// duplicate tables reflect.DeepEqual, every entry and segment column
// Float64bits-equal, and the segments tiling the positions in order.
// The stripe tables and the duplicate table are also checked against a plain
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
			compareTrees(t, tree, refTree)
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"users", ix.users, ref.users},
				{"prefixes", prefixes(tree.root), prefixes(refTree.root)},
				{"stripes", ix.stripes, ref.stripes},
				{"dups", ix.dups, ref.dups},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("%dx%d: %s built on %d cores differs from the one-core build",
						size.groups, size.perGroup, c.name, procs)
				}
			}
			compareIndexes(t, ix, ref)
		}
		if above := ref.Len() >= par.Threshold; above != (size.groups == 90) {
			t.Fatalf("%dx%d has %d leaves: on the wrong side of the threshold", size.groups, size.perGroup, ref.Len())
		}
		next := 0
		for s := 0; s < ref.Segments(); s++ {
			lo, hi := ref.SegmentRange(s)
			if lo != next || hi <= lo {
				t.Fatalf("%dx%d: segment %d spans [%d, %d), want a non-empty range from %d", size.groups, size.perGroup, s, lo, hi, next)
			}
			next = hi
		}
		if next != ref.Len() {
			t.Fatalf("%dx%d: segments cover %d of %d entries", size.groups, size.perGroup, next, ref.Len())
		}
		where := map[string][]int32{}
		for i, u := range ref.users {
			where[u] = append(where[u], int32(i))
		}
		repeated, stripesUsed := 0, map[int]bool{}
		for u, ps := range where {
			if first, ok := ref.Pos(u); !ok || int32(first) != ps[0] {
				t.Fatalf("%q resolves to position %d, first occurrence is %d", u, first, ps[0])
			}
			if len(ps) == 1 {
				ps = nil
			} else {
				repeated++
				stripesUsed[stripeOf(slot.Hash(u))] = true
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

// TestIndexLocateReachesLeaf pins the locator: descending from the root by
// the groups' leaf-count prefixes, position i reaches the leaf named User(i),
// with the usage UsageByLeaf reports and as deep as At(i)'s vector, which
// with the leaf priority is the tree walk's, and the position past the last
// leaf reaches none — in the tree the index was built from and in the tree an
// Apply derived. The shapes are buildAwkward's and fuzzPolicy's: the
// FuzzRecalcTwin seed corpus (mixed leaf and group siblings, a leaf directly
// under the root, duplicate names, a zero-share group, usage zero
// throughout), a root with only leaves, and leaves eleven levels deep.
func TestIndexLocateReachesLeaf(t *testing.T) {
	type shape struct {
		name  string
		p     *policy.Tree
		usage map[string]float64
	}
	p, usage := buildAwkward(9, 12)
	shapes := []shape{{"awkward", p, usage}}
	seeds := map[string][]byte{"root-leaves-only": []byte("\x00\x01\x00\x05\x00\x09\x00\x0d")}
	var chain []byte // ten nested groups, two leaves at the bottom, one under the root
	for k := byte(0); k < 10; k++ {
		chain = append(chain, k<<1|1, 1)
	}
	seeds["deep-chain"] = append(chain, 20, 5, 20, 9, 0, 13)
	files, err := filepath.Glob("testdata/fuzz/FuzzRecalcTwin/*")
	if err != nil || len(files) < 5 {
		t.Fatalf("seed corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n") // header, shape, deltas
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		b, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: shape %s: %v", f, lines[1], err)
		}
		seeds[filepath.Base(f)] = []byte(b)
	}
	for name, b := range seeds {
		fp, names := fuzzPolicy(b)
		fu := map[string]float64{}
		for i, u := range names {
			fu[u] = float64(i % 3)
		}
		shapes = append(shapes, shape{name, fp, fu})
	}
	for _, sh := range shapes {
		tree := Compute(sh.p, sh.usage, DefaultConfig())
		ix := NewIndex(tree)
		if ix.Len() == 0 {
			t.Fatalf("%s: no leaves", sh.name)
		}
		delta := map[string]float64{ix.User(0): 77.5, ix.User(ix.Len() - 1): 1e4}
		tree2, ix2, st, err := NewRecalc(tree, ix).Apply(delta)
		if err != nil || st.DirtyLeaves == 0 {
			t.Fatalf("%s: Apply: %v (%d dirty leaves)", sh.name, err, st.DirtyLeaves)
		}
		for _, c := range []struct {
			tree *Tree
			ix   *Index
		}{{tree, ix}, {tree2, ix2}} {
			want := c.tree.UsageByLeaf()
			for i := 0; i < c.ix.Len(); i++ {
				u := c.ix.User(i)
				path := c.tree.root.descend(int32(i), nil)
				if path == nil {
					t.Fatalf("%s entry %d (%s): located no leaf", sh.name, i, u)
				}
				g, ci, depth := path[len(path)-1].g, path[len(path)-1].i, len(path)
				if g.subAt(ci) != nil || g.pol.Children[ci].Name != u {
					t.Fatalf("%s entry %d (%s): located %+v member %d", sh.name, i, u, g, ci)
				}
				if math.Float64bits(g.usage[ci]) != math.Float64bits(want[u]) {
					t.Fatalf("%s entry %d (%s): usage %v, UsageByLeaf %v", sh.name, i, u, g.usage[ci], want[u])
				}
				e := c.ix.At(i)
				if len(e.Vec) != depth {
					t.Fatalf("%s entry %d (%s): located at depth %d, vector of %d", sh.name, i, u, depth, len(e.Vec))
				}
				if first, _ := c.ix.Pos(u); first == i {
					vec, prio, _ := c.tree.Lookup(u)
					compareFloatSlices(t, fmt.Sprintf("%s entry %d (%s) Vec", sh.name, i, u), e.Vec, vec)
					compareFloatSlices(t, fmt.Sprintf("%s entry %d (%s) LeafPriority", sh.name, i, u), []float64{e.LeafPriority}, []float64{prio})
				}
			}
			if path := c.tree.root.descend(int32(c.ix.Len()), nil); path != nil {
				t.Fatalf("%s: position %d, past the last leaf, located a group", sh.name, c.ix.Len())
			}
		}
		for u, v := range delta {
			if got := tree2.UsageByLeaf()[u]; got != v {
				t.Fatalf("%s: after Apply %s has usage %v, want %v", sh.name, u, got, v)
			}
		}
	}
}

// TestColdAtComposesOneRun pins the cost of a cold lookup to one run buffer
// of composeRun entries, not the top-level subtree it sits in, and the
// composed values to the tree walk's across run and segment boundaries. A
// fresh index and an Apply hold no composed-run slot: the first At
// allocates the chunk table and the chunk of composeChunk slots it reads,
// 40 B at most per composeRun entries, and no other; ComposeInto never
// builds any of it.
func TestColdAtComposesOneRun(t *testing.T) {
	if size := unsafe.Sizeof(composedRun{}); size > 40 {
		t.Errorf("a composed-run slot takes %d B, want ≤ 40", size)
	}
	p, usage := buildWide(2, 10000)
	tree := Compute(p, usage, DefaultConfig())
	ix := NewIndex(tree)
	if ix.comp != nil {
		t.Fatalf("a fresh index holds a chunk table of %d, want none", len(ix.comp))
	}
	_, applied, _, err := NewRecalc(tree, ix).Apply(map[string]float64{ix.User(3): 1e5})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if applied.comp != nil {
		t.Fatalf("an applied index holds a chunk table of %d, want none", len(applied.comp))
	}
	const pos = 12345
	e, _ := applied.ComposeInto(pos, applied.ComposeBuffer(1))
	if applied.comp != nil || e.User != applied.User(pos) {
		t.Fatalf("ComposeInto(%d) read %q and built a chunk table of %d, want %q and none",
			pos, e.User, len(applied.comp), applied.User(pos))
	}

	// A cold At allocates the chunk table, its chunk, then one run's buffer:
	// each run reads a fresh index.
	const runs = 3
	cold := make([]*Index, runs)
	for i := range cold {
		cold[i] = NewIndex(tree)
	}
	next := 0
	cost := measureMem(runs, func() any {
		e = cold[next].At(pos)
		next++
		return nil
	})
	chunks := 0
	for i := range cold[0].comp {
		if cold[0].comp[i].Load() != nil {
			chunks++
		}
	}
	if chunks != 1 {
		t.Errorf("one cold At allocated %d chunks, want 1", chunks)
	}
	cache := uint64(len(cold[0].comp))*uint64(unsafe.Sizeof(cold[0].comp[0])) + uint64(unsafe.Sizeof(composedChunk{}))
	if cost.bytes >= cache+64<<10 {
		t.Errorf("one cold At on a 10000-leaf segment allocated %d bytes, want < %d (the chunk table and one chunk) + 64 KB", cost.bytes, cache)
	}
	if e.User != ix.User(pos) {
		t.Fatalf("At(%d) is %q, want %q", pos, e.User, ix.User(pos))
	}
	if pos/composeRun != (pos^1)/composeRun {
		t.Fatal("test positions are not in one run")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = cold[0].At(pos ^ 1) }); allocs != 0 {
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

// TestColdAtAcrossRunBoundaries pins composition where a run's shared buffer
// could go wrong: a run that starts mid-group, ends mid-group or spans
// segments, a leaf directly under the root, duplicate leaf names, and leaves
// of different depths side by side. Each index is read cold in a random
// order, so a run's buffer is first allocated for whichever of its entries
// is asked for, and every entry must equal the tree walk's bit for bit, leaf
// priority included — on fresh builds and on indexes an Apply derived.
func TestColdAtAcrossRunBoundaries(t *testing.T) {
	type leafRef struct {
		vector.Entry
		prio float64
	}
	walk := func(tr *Tree) []leafRef {
		var out []leafRef
		tr.walkLeaves(func(m Member, w *leafWalk) bool {
			out = append(out, leafRef{vector.Entry{User: m.Name,
				Vec:        w.vec.Clone(),
				PathShares: append([]float64(nil), w.shares...),
				PathUsage:  append([]float64(nil), w.usages...),
			}, m.Priority})
			return false
		})
		return out
	}
	check := func(what string, rng *rand.Rand, tr *Tree, ix *Index) {
		t.Helper()
		want := walk(tr)
		if len(want) != ix.Len() {
			t.Fatalf("%s: index holds %d entries, the walk %d", what, ix.Len(), len(want))
		}
		for _, i := range rng.Perm(len(want)) {
			got, w := ix.At(i), want[i]
			if got.User != w.User {
				t.Fatalf("%s entry %d: user %q, walk %q", what, i, got.User, w.User)
			}
			compareFloatSlices(t, fmt.Sprintf("%s entry %d Vec", what, i), got.Vec, w.Vec)
			compareFloatSlices(t, fmt.Sprintf("%s entry %d PathShares", what, i), got.PathShares, w.PathShares)
			compareFloatSlices(t, fmt.Sprintf("%s entry %d PathUsage", what, i), got.PathUsage, w.PathUsage)
			compareFloatSlices(t, fmt.Sprintf("%s entry %d LeafPriority", what, i), []float64{got.LeafPriority}, []float64{w.prio})
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, usage := buildAwkward(4+rng.Intn(10), 8+rng.Intn(32))
		if seed%2 == 1 {
			var leaves []string
			p, leaves = randomPolicy(rng)
			p.Root.Children = append(p.Root.Children, &policy.Node{Name: leaves[0], Share: 2}) // a root leaf, and a duplicate
			usage = map[string]float64{}
			for _, u := range leaves {
				usage[u] = rng.Float64() * 100
			}
		}
		tree := Compute(p, usage, DefaultConfig())
		ix := NewIndex(tree)
		if ix.Len() <= composeRun && seed%2 == 0 {
			t.Fatalf("seed %d: %d entries fill one run only", seed, ix.Len())
		}
		check(fmt.Sprintf("seed %d", seed), rng, tree, ix)
		delta := map[string]float64{ix.User(rng.Intn(ix.Len())): 1e5, ix.User(ix.Len() - 1): 0.5}
		tree2, ix2, _, err := NewRecalc(tree, ix).Apply(delta)
		if err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d after Apply", seed), rng, tree2, ix2)
	}
}

// TestConcurrentColdAt has several goroutines ask a cold index for the same
// runs' entries in different orders, so entries of one run are composed
// while other entries of it are read. Run it under -race: every reader must
// see its entry whole and equal to a single-goroutine read of a twin index.
func TestConcurrentColdAt(t *testing.T) {
	p, usage := buildAwkward(9, 40)
	tree := Compute(p, usage, DefaultConfig())
	twin, ix := NewIndex(tree), NewIndex(tree)
	want := make([]IndexEntry, twin.Len())
	for i := range want {
		want[i] = twin.At(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		order := rand.New(rand.NewSource(int64(w))).Perm(ix.Len())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				got := ix.At(i)
				if math.Float64bits(got.LeafPriority) != math.Float64bits(want[i].LeafPriority) ||
					!slices.Equal(got.Vec, want[i].Vec) || !slices.Equal(got.PathUsage, want[i].PathUsage) {
					t.Errorf("entry %d read concurrently: %+v, alone %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIndexBytesPerLeaf pins what NewIndex holds per leaf in use, measured
// after runtime.GC(): the name column and 8–16 B of slot table per name,
// ≈27 B in all; the composed-run cache waits for the first At. That was ≈30
// B while every index built the empty cache; ≈65 B two levels deep and ≈75
// B three levels deep while the index also held each leaf's target shares,
// their product, its child-index path and its offsets into them; ≈92 B when
// it also held every leaf's scores below level 0; and ≈120 B before that,
// when each build stripe was a map[string]int32. Two shapes: 1,000 groups ×
// 100 leaves, and 100 × 10 × 100, three levels deep, where a per-level
// column would cost the most.
func TestIndexBytesPerLeaf(t *testing.T) {
	for _, fanout := range [][]int{{1000, 100}, {100, 10, 100}} {
		p, usage := buildGrid(fanout...)
		tree := Compute(p, usage, DefaultConfig())
		n := tree.root.leaves
		perLeaf := float64(measureMem(3, func() any { return NewIndex(tree) }).live) / float64(n)
		if perLeaf > 32 {
			t.Errorf("%v: the index holds %.1f bytes per leaf in use, want ≤ 32", fanout, perLeaf)
		}
		t.Logf("%v: %.1f bytes per leaf in use", fanout, perLeaf)
	}
}

// buildGrid builds a policy len(fanout) levels deep, each group at level l
// with fanout[l] members, distinct leaf names, and random shares and usage.
func buildGrid(fanout ...int) (*policy.Tree, map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	usage := map[string]float64{}
	var fill func(n *policy.Node, name string, level int)
	fill = func(n *policy.Node, name string, level int) {
		n.Children = make([]*policy.Node, fanout[level])
		for i := range n.Children {
			c := &policy.Node{Name: fmt.Sprintf("%s_%d", name, i), Share: rng.Float64() + 0.1}
			if level+1 < len(fanout) {
				fill(c, c.Name, level+1)
			} else {
				usage[c.Name] = rng.Float64() * 1e6
			}
			n.Children[i] = c
		}
	}
	root := &policy.Node{Share: 1}
	fill(root, "n", 0)
	return &policy.Tree{Root: root}, usage
}
