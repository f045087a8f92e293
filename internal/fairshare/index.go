package fairshare

import (
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/slot"
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

// indexStripes is the number of hash stripes the user→position table is
// split into, picked by the top bits of a name's slot hash (its low bits pick
// the slot). Striping lets an index build fill the tables from several
// goroutines without a lock.
const indexStripes = 16

// stripeOf returns the build stripe of a name with slot hash h.
func stripeOf(h uint64) int { return int(h >> 60) }

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
//     shares and their per-leaf product, child-index paths, the segment
//     table, the striped user→position tables and the duplicate table —
//     depends only on the policy topology, so incremental rebuilds (see
//     Recalc) share it wholesale with the previous index (withValues).
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
// its level-0 prefix (fillSegment's walk starts its path stacks at the child), so
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
	// path holds every entry's child indexes from the root down to its leaf,
	// flattened per offs like shares (level 0 is the entry's segment): how
	// Recalc finds a leaf's group and column entry in whatever tree has this
	// shape.
	path []int32
	// segs[s] is segment s's leaf range.
	segs []segMeta

	// headVec/headUsage intern each segment's level-0 vector element and
	// usage share (the root member's Value/UsageShare); tails hold the
	// deeper levels. Together they are the per-snapshot value half.
	headVec   []float64
	headUsage []float64
	tails     []*segTail

	// comp caches composed full-depth arenas for At(), one slot per run of
	// composeRun entries. Built lazily so the refresh path (SegmentShares)
	// never pays for composition; serving-path Table/At callers build each
	// run at most once per snapshot.
	comp []composedRun

	// stripes[stripeOf(slot.Hash(user))] finds a user name's first entry
	// position in DFS order (matching Tree.Vector / Tree.LeafPriority, which
	// return the first leaf with that name when a degenerate policy repeats
	// names across groups), confirmed against users: a pointer-free table of
	// 8–16 B per name.
	stripes [indexStripes]slot.Table
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

// NewIndex builds the segmented index for a computed tree: one segment per
// top-level child, with the child's scored values interned as the segment
// head. Every tree size runs the same code — the segments are filled through
// par.For (their arena ranges are disjoint, and the per-group leaf counts
// cached at build time give exact offsets), then the stripe tables are built
// from the filled name column — so the result cannot depend on the core count.
func NewIndex(t *Tree) *Index {
	n := int(t.root.leaves)
	ix := &Index{}
	bases := ix.initLayout(t.root, n)
	stripe := make([]uint8, n) // stripe[i] = stripeOf(slot.Hash(users[i]))
	par.For(n, len(t.root.usage), func(_, s int) {
		ix.fillSegment(t, s, bases, stripe)
	})
	ix.buildStripes(stripe)
	return ix
}

// initLayout sizes the identity and value halves from an integer-only
// pre-pass over the root's children: segment boundaries, arena extents and
// head/tail allocations, everything except the values themselves. It
// returns each segment's full-depth arena base (len S+1, last element the
// total arena size) — passed around explicitly rather than read back out of
// offs, so parallel segment fills never read a boundary offset another
// goroutine is writing.
func (ix *Index) initLayout(root *group, n int) []int32 {
	S := len(root.usage)
	ix.users = make([]string, n)
	ix.offs = make([]int32, n+1)
	ix.target = make([]float64, n)
	ix.segs = make([]segMeta, S)
	ix.headVec = make([]float64, S)
	ix.headUsage = make([]float64, S)
	ix.tails = make([]*segTail, S)
	ix.comp = newComposed(n)
	bases := make([]int32, S+1)
	lo := int32(0)
	for s := range root.usage {
		leaves, span := int32(1), int32(1) // a leaf member: one entry, one level deep
		if c := root.subAt(s); c != nil {
			leaves, span = c.leaves, int32(depthSum(c, 2))
		}
		bases[s+1] = bases[s] + span
		ix.segs[s] = segMeta{lo: lo, hi: lo + leaves}
		lo += leaves
	}
	ix.shares = make([]float64, bases[S])
	ix.path = make([]int32, bases[S])
	return bases
}

// fillSegment walks the root's s-th subtree and writes segment s's slice of
// the identity arenas (users, offs, shares, target, path) plus its
// head and a freshly allocated tail, and each leaf's stripe id into stripe.
// The scores come from the walk, which computes them as it goes.
func (ix *Index) fillSegment(t *Tree, s int, bases []int32, stripe []uint8) {
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
	head := t.root.member(t.Config, s)
	ix.headVec[s], ix.headUsage[s] = head.Value, head.UsageShare
	pos := int(m.lo)
	ti := 0
	w := leafWalk{cfg: t.Config}
	w.descend(t.root, s, func(leaf Member, w *leafWalk) bool {
		d := len(w.vec)
		copy(ix.shares[ai:ai+d], w.shares)
		copy(ix.path[ai:ai+d], w.path)
		target := 1.0
		for _, sh := range w.shares {
			target *= sh
		}
		ix.target[pos] = target
		copy(tail.vec[ti:ti+d-1], w.vec[1:])
		copy(tail.usage[ti:ti+d-1], w.usages[1:])
		ti += d - 1
		ai += d
		ix.users[pos] = leaf.Name
		stripe[pos] = uint8(stripeOf(slot.Hash(leaf.Name)))
		tail.leafPrio[pos-int(m.lo)] = leaf.Priority
		ix.offs[pos+1] = int32(ai)
		pos++
		return false
	})
}

// buildStripes builds the user→position tables and the duplicate table from
// the filled name column, one stripe per unit of work. Each table is sized
// from a count and filled in position order, so the first occurrence of a
// name wins it and a duplicate list ascends by construction; a name lives in
// one stripe, so the stripes' duplicate tables are disjoint and their union
// is the index's.
func (ix *Index) buildStripes(stripe []uint8) {
	var counts [indexStripes]int
	for _, st := range stripe {
		counts[st]++
	}
	var dups [indexStripes]map[string][]int32
	par.For(len(stripe), indexStripes, func(_, st int) {
		tab := slot.Make(counts[st])
		for pos, at := range stripe {
			if int(at) != st {
				continue
			}
			name := ix.users[pos]
			h := slot.Hash(name)
			first, dup := tab.Find(ix.users, name, h)
			if !dup {
				tab.Add(h, int32(pos))
				continue
			}
			if dups[st] == nil {
				dups[st] = make(map[string][]int32)
			}
			ps := dups[st][name]
			if ps == nil {
				ps = []int32{first}
			}
			dups[st][name] = append(ps, int32(pos))
		}
		ix.stripes[st] = tab
	})
	for _, d := range dups {
		if d != nil && ix.dups == nil {
			ix.dups = make(map[string][]int32)
		}
		for name, ps := range d {
			ix.dups[name] = ps
		}
	}
}

// depthSum returns the summed root-to-leaf path length over every leaf
// below g, with g's members at the given level — the arena space the
// subtree's entries occupy.
func depthSum(g *group, level int) int {
	sum := 0
	for i := range g.usage {
		if s := g.subAt(i); s != nil {
			sum += depthSum(s, level+1)
		} else {
			sum += level
		}
	}
	return sum
}

// leafGroup returns the group holding index entry pos in the tree rooted at
// root and the entry's member index there. The tree must have the shape the
// index was built from; where it does not, leafGroup returns nil.
func (ix *Index) leafGroup(root *group, pos int32) (*group, int) {
	g := root
	path := ix.path[ix.offs[pos]:ix.offs[pos+1]]
	for _, ci := range path[:len(path)-1] {
		if int(ci) >= len(g.usage) || g.subAt(int(ci)) == nil {
			return nil, 0
		}
		g = g.sub[ci]
	}
	if ci := int(path[len(path)-1]); ci < len(g.usage) && g.subAt(ci) == nil {
		return g, ci
	}
	return nil, 0
}

// withValues returns the index of a tree of the same shape with other values:
// it shares ix's identity half by pointer and holds the given value half.
func (ix *Index) withValues(headVec, headUsage []float64, tails []*segTail) *Index {
	return &Index{
		users:     ix.users,
		offs:      ix.offs,
		shares:    ix.shares,
		target:    ix.target,
		path:      ix.path,
		segs:      ix.segs,
		stripes:   ix.stripes,
		dups:      ix.dups,
		headVec:   headVec,
		headUsage: headUsage,
		tails:     tails,
		comp:      newComposed(len(ix.users)),
	}
}

// Pos returns the entry position for a user (the first leaf in DFS order
// when the name is duplicated) without allocating.
func (ix *Index) Pos(user string) (int, bool) {
	h := slot.Hash(user)
	p, ok := ix.stripes[stripeOf(h)].Find(ix.users, user, h)
	return int(p), ok
}

// seg returns the segment of entry i: a binary search over segs, whose
// ranges ascend and tile the positions. segs is small enough to stay in
// cache, where a per-entry segment column would cost a miss per lookup.
func (ix *Index) seg(i int) int32 {
	lo, hi := 0, len(ix.segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(ix.segs[m].hi) <= i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
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
	s := ix.seg(lo)
	for j := lo; j < hi; j++ {
		for int(ix.segs[s].hi) <= j {
			s++
		}
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
	s := ix.seg(i)
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
