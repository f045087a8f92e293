package fairshare

import (
	"math/rand"
	"runtime"
	"testing"

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

// TestIndexMatchesTreeWalks pins the index against the walking lookups it
// replaces: same vectors, same leaf priorities, same entry set.
func TestIndexMatchesTreeWalks(t *testing.T) {
	tree, _ := buildDeep(t)
	ix := tree.Index()
	if ix.Len() != 4 {
		t.Fatalf("indexed %d users, want 4", ix.Len())
	}
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		e, ok := ix.Lookup(u)
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
	if _, ok := ix.Lookup("ghost"); ok {
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
	ix := tree.Index()
	u1, _ := ix.Lookup("u1")
	before := append([]float64(nil), u1.Vec...)
	u2, _ := ix.Lookup("u2")
	for i := range u2.Vec {
		u2.Vec[i] = -99
	}
	after, _ := ix.Lookup("u1")
	for i := range before {
		if after.Vec[i] != before[i] {
			t.Fatalf("mutating u2's vector corrupted u1's: %v vs %v", after.Vec, before)
		}
	}
}

// TestParallelComputeMatchesSerial pins the parallel scoring path against
// the serial one on a tree past the parallel threshold.
func TestParallelComputeMatchesSerial(t *testing.T) {
	// 80 groups × 80 users = 6481 nodes ≥ parallelComputeThreshold.
	p, usage := buildWide(80, 80)
	cfg := DefaultConfig()
	par := Compute(p, usage, cfg)

	// Serial reference: build via the single-goroutine path (normalizing
	// shares inline like buildTree's parallel branch) and score recursively.
	root, nodes := buildNorm(p.Root, p.Root.Share, usage)
	if nodes < parallelComputeThreshold {
		t.Fatalf("test tree too small to exercise the parallel path: %d nodes", nodes)
	}
	root.Share = 1
	root.UsageShare = 1
	root.Value = cfg.normalized().Balance()
	scoreDescendants(root, cfg.normalized())
	ser := &Tree{Root: root, Config: cfg.normalized()}

	parEntries := par.Entries()
	serEntries := ser.Entries()
	if len(parEntries) != len(serEntries) {
		t.Fatalf("entry counts differ: %d vs %d", len(parEntries), len(serEntries))
	}
	serByUser := map[string]vector.Entry{}
	for _, e := range serEntries {
		serByUser[e.User] = e
	}
	for _, e := range parEntries {
		want, ok := serByUser[e.User]
		if !ok {
			t.Fatalf("user %s missing from serial tree", e.User)
		}
		for i := range e.Vec {
			if e.Vec[i] != want.Vec[i] {
				t.Errorf("%s: parallel vec %v, serial %v", e.User, e.Vec, want.Vec)
				break
			}
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
