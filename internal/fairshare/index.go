package fairshare

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vector"
)

// IndexEntry is one user's fully resolved serving record: the projection
// entry (vector, per-level target and usage shares) plus the raw leaf
// priority. Entries are composed on the fly from the index's arenas; the
// embedded slices alias immutable index storage, so they can be handed out
// without copying but must not be mutated.
type IndexEntry struct {
	vector.Entry
	// LeafPriority is the raw (unprojected) priority of the user's leaf.
	LeafPriority float64
}

// indexStripes is the number of hash stripes the user→position map is split
// into. Striping lets full index rebuilds populate the map from several
// goroutines without a global lock, and keeps per-map sizes (and therefore
// rehash pauses) bounded at the 1M-user scale.
const indexStripes = 16

// segMeta is one segment's contiguous leaf range [lo, hi) in entry-position
// order. Segment s covers exactly the leaves of the root's s-th child, so
// segment ids double as top-level child indexes.
type segMeta struct {
	lo, hi int32
}

// segTail holds one segment's per-snapshot suffix values: for every leaf of
// the segment in DFS order, the vector and usage-share elements BELOW the
// interned level-0 head (levels 1..depth-1, flattened back to back), plus
// the raw leaf priorities. A tail is immutable once published; incremental
// rebuilds share untouched segments' tails by pointer.
type segTail struct {
	vec      []float64
	usage    []float64
	leafPrio []float64
}

// composeRun is how many consecutive leaves one cold At() composes: a lookup
// pays for a few KB of full-depth values whatever the tree shape, not for a
// whole top-level subtree.
const composeRun = 64

// composedRun is the lazily materialized full-depth (head ⊕ tail) arena pair
// of one run of composeRun consecutive entries, built on first At() access
// and cached for the life of the snapshot. done uses acquire/release
// semantics: it is stored only after base, vec and usage are fully written,
// so lock-free readers that observe done==true see complete arenas. The
// struct fills one cache line, so a warm lookup finds everything about its
// run in one place. Never copy a composedRun (it embeds a Mutex); access
// elements of Index.comp by pointer only.
type composedRun struct {
	mu   sync.Mutex
	done atomic.Bool
	// base is the run's first entry's offset in full-depth arena
	// coordinates (Index.offs); the arenas are indexed relative to it.
	base int32
	vec  []float64
	// usage is the composed per-level usage-share arena.
	usage []float64
}

// Index is an immutable O(1) lookup table over a fairshare tree's leaves.
// It is what lets the FCS serve `Priority()` without walking the tree: "no
// real-time calculations need to take place when new jobs arrive". An Index
// is safe for concurrent use by any number of readers because construction
// publishes only immutable state (the lazy composed-run and projection
// views are built under their own synchronization).
//
// Storage is split in two along the incremental-recalc seam:
//
//   - The identity half — user names, per-entry arena offsets, target
//     shares and their per-leaf product, the segment table, the sharded
//     user→position maps and the duplicate table — depends only on the
//     policy topology, so incremental rebuilds (see Recalc) share it
//     wholesale with the previous index.
//   - The value half — what a usage delta changes — is segmented along
//     top-level subtrees: each segment interns its single level-0
//     (vector, usage) prefix in headVec/headUsage and keeps only the deeper
//     levels in a per-segment tail. A refresh that leaves a subtree's
//     leaves untouched re-publishes that segment as one pointer copy plus
//     two interned floats instead of re-writing depth floats per leaf —
//     the mechanism that takes phase 5 of an incremental recalc from
//     O(users·depth) to O(dirty + segments).
//
// Every leaf under one top-level child shares that child's scored values as
// its level-0 prefix (walkSubtree starts its path stacks at the child), so
// interning loses nothing: composing head ⊕ tail yields bit-identical floats
// to the flat arenas the index used to hold.
type Index struct {
	// users[i] is the leaf name at entry position i (DFS order).
	users []string
	// offs[i] is the start of entry i's per-level values in full-depth
	// arena coordinates (level 0 included); entry i spans
	// [offs[i], offs[i+1]) and its depth is the difference.
	// len(offs) == len(users)+1. Tail arenas use the same coordinates minus
	// one slot per leaf — see tailSpan.
	offs []int32
	// shares holds every entry's normalized target shares, flattened per
	// offs. Target shares change only with the policy, never with usage.
	shares []float64
	// target[i] is the product of entry i's target shares, folded left to
	// right from 1 — the leaf's absolute slice of the grid under the policy,
	// which the publish pass reads instead of re-multiplying the path.
	target []float64
	// segs[s] is segment s's leaf range; segOf[i] is the segment of entry i.
	segs  []segMeta
	segOf []int32

	// headVec/headUsage intern each segment's level-0 vector element and
	// usage share (the root child's scored Value/UsageShare); tails hold the
	// deeper levels. Together they are the per-snapshot value half.
	headVec   []float64
	headUsage []float64
	tails     []*segTail

	// comp caches composed full-depth arenas for At(), one slot per run of
	// composeRun entries. Built lazily so the refresh path (SegmentShares)
	// never pays for composition; serving-path Table/At callers build each
	// run at most once per snapshot.
	comp []composedRun

	// stripes[hash(user)%indexStripes] maps a user name to its first entry
	// position in DFS order (matching Tree.Vector / Tree.LeafPriority, which
	// return the first leaf with that name when a degenerate policy repeats
	// names across groups).
	stripes [indexStripes]map[string]int32
	// dups holds, for names appearing on more than one leaf, every position
	// (including the first) in ascending DFS order. Nil when all names are
	// unique — the common case.
	dups map[string][]int32
	// projEntries is a lazily built []vector.Entry view over the arenas,
	// sharing their storage, so projections run without re-walking or
	// re-copying. Lazy because pointwise projections never need it.
	projOnce    sync.Once
	projEntries []vector.Entry
}

// stripeOf hashes a user name (FNV-1a) onto a stripe without allocating.
func stripeOf(name string) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return uint32(h % indexStripes)
}

// NewIndex builds the segmented index for a computed tree. Small trees walk
// the root's subtrees serially; large trees split them into contiguous
// chunks of roughly equal leaf count (the per-node leaf counts cached at
// build time give exact offsets) and build arena sections plus per-chunk
// stripe maps in parallel, merging the stripe maps deterministically
// afterwards. Either way the layout is identical: one segment per top-level
// child, with the child's scored values interned as the segment head.
func NewIndex(t *Tree) *Index {
	root := t.Root
	n := leafCount(root)
	ix := &Index{}
	bases := ix.initLayout(root, n)
	if n >= parallelComputeThreshold && len(root.Children) > 1 {
		ix.buildParallel(root, n, bases)
		return ix
	}
	for s := range ix.stripes {
		ix.stripes[s] = make(map[string]int32)
	}
	for s, c := range root.Children {
		ix.fillSegment(s, c, bases, ix.addPos)
	}
	return ix
}

// initLayout sizes the identity and value halves from an integer-only
// pre-pass over the root's children: segment boundaries, arena extents and
// head/tail allocations, everything except the values themselves. It
// returns each segment's full-depth arena base (len S+1, last element the
// total arena size) — passed around explicitly rather than read back out of
// offs, so parallel segment fills never read a boundary offset another
// goroutine is writing.
func (ix *Index) initLayout(root *Node, n int) []int32 {
	S := len(root.Children)
	ix.users = make([]string, n)
	ix.offs = make([]int32, n+1)
	ix.target = make([]float64, n)
	ix.segOf = make([]int32, n)
	ix.segs = make([]segMeta, S)
	ix.headVec = make([]float64, S)
	ix.headUsage = make([]float64, S)
	ix.tails = make([]*segTail, S)
	ix.comp = newComposed(n)
	bases := make([]int32, S+1)
	lo := int32(0)
	for s, c := range root.Children {
		bases[s+1] = bases[s] + int32(subtreeDepthSum(c, 1))
		ix.segs[s] = segMeta{lo: lo, hi: lo + c.leaves}
		lo += c.leaves
	}
	ix.shares = make([]float64, bases[S])
	return bases
}

// fillSegment walks one top-level subtree and writes segment s's slice of
// the identity arenas (users, offs, shares, segOf) plus its head and a
// freshly allocated tail. addPos receives each (name, position) in DFS
// order — the serial build passes ix.addPos, the parallel build a
// chunk-local recorder.
func (ix *Index) fillSegment(s int, c *Node, bases []int32, addPos func(name string, pos int32)) {
	m := ix.segs[s]
	nLeaves := int(m.hi - m.lo)
	ai := int(bases[s]) // full-depth arena cursor
	full := int(bases[s+1] - bases[s])
	tail := &segTail{
		vec:      make([]float64, full-nLeaves),
		usage:    make([]float64, full-nLeaves),
		leafPrio: make([]float64, nLeaves),
	}
	ix.tails[s] = tail
	ix.headVec[s] = c.Value
	ix.headUsage[s] = c.UsageShare
	pos := int(m.lo)
	ti := 0
	walkSubtree(c, func(nd *Node, vec vector.Vector, shares, usages []float64) {
		d := len(vec)
		copy(ix.shares[ai:ai+d], shares)
		target := 1.0
		for _, sh := range shares {
			target *= sh
		}
		ix.target[pos] = target
		copy(tail.vec[ti:ti+d-1], vec[1:])
		copy(tail.usage[ti:ti+d-1], usages[1:])
		ti += d - 1
		ai += d
		ix.users[pos] = nd.Name
		tail.leafPrio[pos-int(m.lo)] = nd.Priority
		ix.offs[pos+1] = int32(ai)
		ix.segOf[pos] = int32(s)
		addPos(nd.Name, int32(pos))
		pos++
	})
}

// addPos records a leaf position for a name: first occurrence wins the
// stripe map, later ones go to the duplicate table.
func (ix *Index) addPos(name string, pos int32) {
	m := ix.stripes[stripeOf(name)]
	if first, dup := m[name]; dup {
		if ix.dups == nil {
			ix.dups = make(map[string][]int32)
		}
		if len(ix.dups[name]) == 0 {
			ix.dups[name] = append(ix.dups[name], first)
		}
		ix.dups[name] = append(ix.dups[name], pos)
		return
	}
	m[name] = pos
}

// subtreeDepthSum returns the summed root-to-leaf path length over every
// leaf of the subtree, with the subtree's own node at the given level — the
// arena space the subtree's entries occupy.
func subtreeDepthSum(n *Node, level int) int {
	if len(n.Children) == 0 {
		return level
	}
	s := 0
	for _, c := range n.Children {
		s += subtreeDepthSum(c, level+1)
	}
	return s
}

// buildParallel partitions the root's children into contiguous chunks of
// roughly equal leaf count, fills each chunk's segments and local stripe
// maps concurrently, then merges the stripe maps. Entry order, segment
// layout, first-wins positions and duplicate tables are bitwise identical
// to the serial build. Requires initLayout to have run.
func (ix *Index) buildParallel(root *Node, n int, bases []int32) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(root.Children) {
		workers = len(root.Children)
	}
	// Chunk boundaries: greedy fill to ~n/workers leaves per chunk.
	type chunk struct {
		firstChild, lastChild int // child index range [first, last)
	}
	var chunks []chunk
	target := (n + workers - 1) / workers
	acc, first := 0, 0
	for i, c := range root.Children {
		acc += int(c.leaves)
		if acc >= target || i == len(root.Children)-1 {
			chunks = append(chunks, chunk{firstChild: first, lastChild: i + 1})
			acc = 0
			first = i + 1
		}
	}
	type local struct {
		stripes [indexStripes]map[string]int32
		// extra holds positions whose name already had a smaller position
		// within this chunk (in-chunk duplicates).
		extra []int32
	}
	locals := make([]local, len(chunks))
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for i := range chunks {
		go func(i int) {
			defer wg.Done()
			ck := chunks[i]
			lc := &locals[i]
			for s := range lc.stripes {
				lc.stripes[s] = make(map[string]int32)
			}
			for child := ck.firstChild; child < ck.lastChild; child++ {
				ix.fillSegment(child, root.Children[child], bases, func(name string, pos int32) {
					m := lc.stripes[stripeOf(name)]
					if _, dup := m[name]; dup {
						lc.extra = append(lc.extra, pos)
					} else {
						m[name] = pos
					}
				})
			}
		}(i)
	}
	wg.Wait()

	// Merge: chunks in ascending order so the smallest position wins each
	// name; collisions (cross-chunk repeats) and in-chunk extras become
	// duplicate-table entries.
	var conflicts []int32
	for s := 0; s < indexStripes; s++ {
		merged := make(map[string]int32)
		for ci := range locals {
			for name, pos := range locals[ci].stripes[s] {
				if _, ok := merged[name]; ok {
					conflicts = append(conflicts, pos)
				} else {
					merged[name] = pos
				}
			}
		}
		ix.stripes[s] = merged
	}
	for ci := range locals {
		conflicts = append(conflicts, locals[ci].extra...)
	}
	if len(conflicts) > 0 {
		ix.dups = make(map[string][]int32)
		for _, pos := range conflicts {
			name := ix.users[pos]
			if len(ix.dups[name]) == 0 {
				// Seed with the winning first position.
				ix.dups[name] = append(ix.dups[name], ix.stripes[stripeOf(name)][name])
			}
			ix.dups[name] = append(ix.dups[name], pos)
		}
		for name := range ix.dups {
			ps := ix.dups[name]
			sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		}
	}
}

// leafCount returns the number of index entries a tree yields: the cached
// per-subtree leaf counts summed over the root's children (a childless root
// produces no entries, matching walkLeaves).
func leafCount(root *Node) int {
	n := 0
	for _, c := range root.Children {
		n += int(c.leaves)
	}
	return n
}

// walkSubtree visits every leaf of a top-level subtree in DFS order with the
// same path-state semantics as walkLeaves (the stacks start at c's level).
// Used to fill segments, in parallel for large trees.
func walkSubtree(c *Node, fn func(leaf *Node, vec vector.Vector, shares, usages []float64)) {
	vec := vector.Vector{c.Value}
	shares := []float64{c.Share}
	usages := []float64{c.UsageShare}
	if len(c.Children) == 0 {
		fn(c, vec, shares, usages)
		return
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if len(n.Children) == 0 {
			fn(n, vec, shares, usages)
			return
		}
		for _, ch := range n.Children {
			vec = append(vec, ch.Value)
			shares = append(shares, ch.Share)
			usages = append(usages, ch.UsageShare)
			walk(ch)
			vec = vec[:len(vec)-1]
			shares = shares[:len(shares)-1]
			usages = usages[:len(usages)-1]
		}
	}
	walk(c)
}

// Index builds the serving index for the tree. Equivalent to NewIndex(t).
func (t *Tree) Index() *Index { return NewIndex(t) }

// Pos returns the entry position for a user (the first leaf in DFS order
// when the name is duplicated) without allocating.
func (ix *Index) Pos(user string) (int, bool) {
	m := ix.stripes[stripeOf(user)]
	if m == nil {
		return 0, false
	}
	p, ok := m[user]
	return int(p), ok
}

// newComposed returns the empty composed-run cache of an n-entry snapshot.
func newComposed(n int) []composedRun {
	return make([]composedRun, (n+composeRun-1)/composeRun)
}

// composed returns the full-depth arenas of the run entry i belongs to,
// materializing them on first use. The double-checked atomic keeps the hot
// path allocation- and lock-free once a run is built.
func (ix *Index) composed(i int) *composedRun {
	c := &ix.comp[i/composeRun]
	if c.done.Load() {
		return c
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done.Load() {
		return c
	}
	lo := i - i%composeRun
	hi := min(lo+composeRun, len(ix.users))
	base := int(ix.offs[lo])
	size := int(ix.offs[hi]) - base
	buf := make([]float64, 2*size)
	vec, pu := buf[:size:size], buf[size:]
	for j := lo; j < hi; j++ {
		s := ix.segOf[j]
		t := ix.tails[s]
		to, tl := ix.tailSpan(j, ix.segs[s])
		off := int(ix.offs[j]) - base
		vec[off], pu[off] = ix.headVec[s], ix.headUsage[s]
		copy(vec[off+1:off+1+tl], t.vec[to:to+tl])
		copy(pu[off+1:off+1+tl], t.usage[to:to+tl])
	}
	c.base, c.vec, c.usage = int32(base), vec, pu
	c.done.Store(true)
	return c
}

// tailSpan returns entry i's offset and length within its segment's tail
// arenas: full-depth coordinates rebased to the segment, minus the one
// interned level-0 slot per preceding leaf.
func (ix *Index) tailSpan(i int, m segMeta) (off, length int) {
	off = int(ix.offs[i]) - int(ix.offs[m.lo]) - (i - int(m.lo))
	length = int(ix.offs[i+1]-ix.offs[i]) - 1
	return off, length
}

// At returns the entry at position i, composed from the index's arenas.
// The entry's slices alias immutable per-snapshot storage (the lazily built
// composed arenas of the entry's run); callers must not mutate them.
func (ix *Index) At(i int) IndexEntry {
	c := ix.composed(i)
	off, end := ix.offs[i]-c.base, ix.offs[i+1]-c.base
	goff, gend := ix.offs[i], ix.offs[i+1]
	s := ix.segOf[i]
	return IndexEntry{
		Entry: vector.Entry{
			User:       ix.users[i],
			Vec:        vector.Vector(c.vec[off:end:end]),
			PathShares: ix.shares[goff:gend:gend],
			PathUsage:  c.usage[off:end:end],
		},
		LeafPriority: ix.tails[s].leafPrio[i-int(ix.segs[s].lo)],
	}
}

// User returns the leaf name at position i.
func (ix *Index) User(i int) string { return ix.users[i] }

// SegmentRange returns segment s's entry positions [lo, hi).
func (ix *Index) SegmentRange(s int) (lo, hi int) {
	m := ix.segs[s]
	return int(m.lo), int(m.hi)
}

// SegmentShares streams segment s's flat share columns without touching (or
// building) the composed arenas: it returns each leaf's target-share product
// (identity storage, read-only) and writes each leaf's usage-share product
// into actual, which must hold one value per leaf of the segment. The usage
// product folds the interned head then the tail left to right — 1·head·t1·t2…,
// the float sequence a fold over At(i).PathUsage multiplies (1·x is exact) —
// so a publish pass over these columns is bit-identical to one over entries.
func (ix *Index) SegmentShares(s int, actual []float64) (target []float64) {
	m := ix.segs[s]
	tail := ix.tails[s].usage
	head := ix.headUsage[s]
	ti := 0
	for i := int(m.lo); i < int(m.hi); i++ {
		a := head
		for end := ti + int(ix.offs[i+1]-ix.offs[i]) - 1; ti < end; ti++ {
			a *= tail[ti]
		}
		actual[i-int(m.lo)] = a
	}
	return ix.target[m.lo:m.hi:m.hi]
}

// Segments returns the number of top-level-subtree segments the value half
// is partitioned into.
func (ix *Index) Segments() int { return len(ix.segs) }

// Lookup returns the serving record for a user. The returned entry shares
// the index's immutable arenas; callers must not mutate its slices.
func (ix *Index) Lookup(user string) (IndexEntry, bool) {
	i, ok := ix.Pos(user)
	if !ok {
		return IndexEntry{}, false
	}
	return ix.At(i), true
}

// positions returns every leaf position carrying the user's name (ascending
// DFS order), appending into buf to avoid allocation in the unique case.
func (ix *Index) positions(user string, buf []int32) []int32 {
	if ps, ok := ix.dups[user]; ok {
		return ps
	}
	if p, ok := ix.Pos(user); ok {
		return append(buf[:0], int32(p))
	}
	return nil
}

// Entries returns the projection view of every leaf in DFS order (including
// any duplicate-named leaves, matching Tree.Entries). The slice and its
// entries are shared and immutable; callers must not mutate them. The view
// is materialized lazily on first use — pointwise projections never need it.
func (ix *Index) Entries() []vector.Entry {
	ix.projOnce.Do(func() {
		pe := make([]vector.Entry, len(ix.users))
		for i := range pe {
			pe[i] = ix.At(i).Entry
		}
		ix.projEntries = pe
	})
	return ix.projEntries
}

// Len returns the number of indexed leaves.
func (ix *Index) Len() int { return len(ix.users) }
