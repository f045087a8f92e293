package fairshare

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/slot"
	"repro/internal/vector"
)

// IndexEntry is one user's fully resolved serving record: the projection
// entry (vector, per-level target and usage shares) plus the raw leaf
// priority and the two path products. Entries are composed from the tree:
// At caches them per snapshot and ComposeInto writes one into a caller's
// buffer. The embedded slices alias that storage (the entry's stretch of its
// composed run's buffer, or of the caller's, where vector, target shares and
// usage shares lie side by side), so they can be handed out without copying
// but must not be mutated.
type IndexEntry struct {
	vector.Entry
	// LeafPriority is the raw (unprojected) priority of the user's leaf.
	LeafPriority float64
	// Target and Actual are the products of PathShares and of PathUsage,
	// folded left to right from 1 by At on every read — the leaf's absolute
	// slice of the grid under the policy and under usage, with the bits the
	// percental projection and the drift pass compute from them.
	Target, Actual float64
}

// indexStripes is the number of hash stripes the user→position table is
// split into, picked by the top bits of a name's slot hash (its low bits pick
// the slot). Striping lets an index build fill the tables from several
// goroutines without a lock.
const indexStripes = 16

// stripeOf returns the build stripe of a name with slot hash h.
func stripeOf(h uint64) int { return int(h >> 60) }

// composeRun is how many consecutive entries share one composed-run slot and
// its buffer: the buffer is allocated when the first of them is asked for,
// and each entry is composed into it when it is itself asked for. At most
// 32, the bits of composedRun.done.
const composeRun = 16

// composeChunk is how many composed-run slots are allocated together: a
// snapshot's cache is allocated one chunk at a time, when an entry of it is
// first asked for, so no single lookup pays for the whole population. 64
// slots hold 1,024 entries in 2,560 B.
const composeChunk = 64

// composedChunk is one allocation of the composed-run cache.
type composedChunk [composeChunk]composedRun

// composedRun caches the composed full-depth values of the entries of one
// run of composeRun consecutive entries that At has been asked for, for the
// life of the snapshot. done has bit k set once the run's k-th entry is
// composed; it is stored only after the entry's values (and, the first time,
// buf) are written, so a lock-free reader that observes its bit sees them. A
// composed entry is never written again. Never copy a composedRun (it embeds
// a Mutex); access the elements of a composedChunk by pointer only.
type composedRun struct {
	mu   sync.Mutex
	done atomic.Uint32
	// buf holds the run's entries in turn, Index.stride values each (see
	// Index.span): an entry of depth d opens with its vector, its per-level
	// target and usage shares and its raw leaf priority, 3d+1 values, so a
	// warm lookup reads one contiguous stretch.
	buf []float64
}

// Index is an immutable O(1) lookup table over a fairshare tree's leaves.
// It is what lets the FCS serve `Priority()` without searching the tree: "no
// real-time calculations need to take place when new jobs arrive". An Index
// is safe for concurrent use by any number of readers because construction
// publishes only immutable state (the lazy composed-run and projection
// views are built under their own synchronization).
//
// The index stores names only. Per leaf it holds the user name at each entry
// position and the striped user→position tables (and the duplicate table)
// that find it, which depend only on the policy topology, so an incremental
// rebuild (see Recalc) shares them wholesale with the previous index
// (withRoot). Everything else is read from the tree where it is needed: a
// position is located by the groups' leaf-count prefixes (descend), At
// composes the entries asked for, and SegmentShares folds a segment's target
// and usage products for the FCS's drift pass.
type Index struct {
	// users[i] is the leaf name at entry position i (DFS order).
	users []string

	// root and cfg are the tree the entries are read from: its groups hold
	// the usage columns and the leaf-count prefixes, and cfg is its
	// normalized Config.
	root *group
	cfg  Config

	// comp caches composed full-depth values for At(), one slot per run of
	// composeRun entries, in chunks of composeChunk slots. The chunk table is
	// allocated on the snapshot's first At and each chunk when At first asks
	// for one of its entries, so the refresh path never pays for the cache
	// and a lookup pays for one chunk at most; serving-path Table/At callers
	// compose each entry at most once per snapshot.
	compOnce sync.Once
	comp     []atomic.Pointer[composedChunk]
	// depth is the depth of the tree's deepest leaf, and stride the values
	// an entry takes in its run's buffer: 3·depth+1 when every leaf is that
	// deep, and one more when depths differ, the last value then holding the
	// entry's own depth.
	depth, stride int

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
	// projEntries is a lazily built []vector.Entry view over the composed
	// runs, sharing their storage, so projections run without re-walking or
	// re-copying. Lazy because pointwise projections never need it.
	projOnce    sync.Once
	projEntries []vector.Entry
}

// NewIndex builds the index of a computed tree: the name column, filled one
// top-level subtree at a time through par.For (the root's leaf-count prefix
// gives each its disjoint range), then the stripe tables built from it. Every
// tree size runs the same code, so the result cannot depend on the core
// count.
func NewIndex(t *Tree) *Index {
	n := int(t.root.leaves)
	ix := &Index{users: make([]string, n), root: t.root, cfg: t.Config}
	if n > 0 {
		lo, hi := t.root.leafDepths()
		ix.depth, ix.stride = hi, 3*hi+1
		if lo < hi {
			ix.stride++
		}
	}
	stripe := make([]uint8, n) // stripe[i] = stripeOf(slot.Hash(users[i]))
	par.For(n, len(t.root.usage), func(_, s int) {
		lo, _ := ix.SegmentRange(s)
		ix.fillNames(t.root, s, lo, stripe)
	})
	ix.buildStripes(stripe)
	return ix
}

// fillNames writes the names of the leaves below g's i-th member (the member
// itself when it is a leaf) into the name column from position pos on, in
// DFS order, and each one's stripe id into stripe. It returns the position
// after them.
func (ix *Index) fillNames(g *group, i, pos int, stripe []uint8) int {
	s := g.subAt(i)
	if s == nil {
		name := g.pol.Children[i].Name
		ix.users[pos] = name
		stripe[pos] = uint8(stripeOf(slot.Hash(name)))
		return pos + 1
	}
	for j := range s.usage {
		pos = ix.fillNames(s, j, pos, stripe)
	}
	return pos
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

// leafDepths returns the least and the greatest depth of a leaf below g (1
// for a member of g itself). g must have a leaf.
func (g *group) leafDepths() (lo, hi int) {
	lo = math.MaxInt
	for i := range g.usage {
		l, h := 1, 1
		if s := g.subAt(i); s != nil {
			if s.leaves == 0 {
				continue
			}
			l, h = s.leafDepths()
			l, h = l+1, h+1
		}
		lo, hi = min(lo, l), max(hi, h)
	}
	return lo, hi
}

// memberOf returns the member of g that holds g's pos-th leaf (counted from
// 0 in DFS order) and the leaf's position among that member's leaves: a
// binary search of the leaf-count prefix, or pos itself in a group of leaves
// only. The member is out of range when g has no pos-th leaf.
func (g *group) memberOf(pos int32) (int, int32) {
	p := g.prefix
	if p == nil {
		return int(pos), 0
	}
	i, found := slices.BinarySearch(p, pos)
	if !found {
		i-- // the last member starting at or before pos: prefix[0] is 0
	}
	return i, pos - p[i]
}

// step is one level of a descent through the tree: member i of group g.
type step struct {
	g *group
	i int
}

// descend appends to path the member taken at each level on the way from g
// down to g's pos-th leaf in DFS order, g's own first and the leaf last. It
// descends the groups' leaf-count prefixes, O(depth·log fanout), and is how
// every reader finds an index position's leaf in the tree. The tree must
// have the shape the index was built from; where it has no such leaf,
// descend returns nil.
func (g *group) descend(pos int32, path []step) []step {
	for {
		i, rest := g.memberOf(pos)
		if uint(i) >= uint(len(g.usage)) {
			return nil
		}
		path = append(path, step{g, i})
		s := g.subAt(i)
		if s == nil {
			return path
		}
		g, pos = s, rest
	}
}

// withRoot returns the index of a tree of the same shape with other usage,
// rooted at root: it shares ix's names and lookup tables by pointer.
func (ix *Index) withRoot(root *group) *Index {
	return &Index{
		users:   ix.users,
		root:    root,
		cfg:     ix.cfg,
		depth:   ix.depth,
		stride:  ix.stride,
		stripes: ix.stripes,
		dups:    ix.dups,
	}
}

// Pos returns the entry position for a user (the first leaf in DFS order
// when the name is duplicated) without allocating.
func (ix *Index) Pos(user string) (int, bool) {
	h := slot.Hash(user)
	p, ok := ix.stripes[stripeOf(h)].Find(ix.users, user, h)
	return int(p), ok
}

// composed returns the run entry i belongs to, with entry i composed. The
// double-checked atomic keeps the hot path allocation- and lock-free once the
// entry is.
func (ix *Index) composed(i int) *composedRun {
	c := ix.run(i / composeRun)
	bit := uint32(1) << (i % composeRun)
	if c.done.Load()&bit != 0 {
		return c
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if done := c.done.Load(); done&bit == 0 {
		ix.compose(c, i)
		c.done.Store(done | bit)
	}
	return c
}

// run returns the composed-run slot of run r, allocating the chunk table on
// the first call and r's chunk, empty, on the first call for a run of it. Of
// two goroutines that race to allocate a chunk, the one whose chunk is not
// stored drops it before writing to it.
func (ix *Index) run(r int) *composedRun {
	ix.compOnce.Do(func() {
		runs := (len(ix.users) + composeRun - 1) / composeRun
		ix.comp = make([]atomic.Pointer[composedChunk], (runs+composeChunk-1)/composeChunk)
	})
	p := &ix.comp[r/composeChunk]
	ch := p.Load()
	if ch == nil {
		p.CompareAndSwap(nil, new(composedChunk))
		ch = p.Load()
	}
	return &ch[r%composeChunk]
}

// compose writes entry i into its run's buffer, allocating the buffer first
// if the run has none: it descends to the entry's leaf and scores its path.
// The caller holds c.mu.
func (ix *Index) compose(c *composedRun, i int) {
	var buf [8]step // more levels allocate
	path := ix.root.descend(int32(i), buf[:0])
	if c.buf == nil {
		lo := i - i%composeRun
		c.buf = make([]float64, min(composeRun, len(ix.users)-lo)*ix.stride)
	}
	at := i % composeRun * ix.stride
	e := c.buf[at : at+ix.stride]
	scorePath(ix.cfg, path, e)
	if ix.stride > 3*ix.depth+1 {
		e[ix.stride-1] = float64(len(path))
	}
}

// scorePath writes the composed values of the entry whose leaf is reached by
// path into e, scoring the member taken at every level: the entry's vector,
// its per-level target and usage shares and its raw leaf priority, 3d+1
// values for a path of d levels. At and ComposeInto both compose through it,
// so their entries are bit-identical.
func scorePath(cfg Config, path []step, e []float64) {
	d := len(path)
	var prio float64
	for l, st := range path {
		share := st.g.shares[st.i]
		var us, v float64
		us, prio, v = score(cfg, share, st.g.usage[st.i], st.g.total)
		e[l], e[d+l], e[2*d+l] = v, share, us
	}
	e[3*d] = prio
}

// span returns the stretch of c's buffer that holds the run's k-th entry,
// and the entry's depth.
func (ix *Index) span(c *composedRun, k int) ([]float64, int) {
	at, d := k*ix.stride, ix.depth
	if ix.stride > 3*d+1 {
		d = int(c.buf[at+ix.stride-1])
	}
	return c.buf[at : at+3*d+1 : at+3*d+1], d
}

// At returns the entry at position i, composed from the tree, with its two
// path products folded from its shares (1·s₀·s₁…, 1·us₀·us₁…, the float
// sequences SegmentShares multiplies). The entry's slices alias immutable
// per-snapshot storage (the entry's stretch of its run's buffer); callers
// must not mutate them.
func (ix *Index) At(i int) IndexEntry {
	e, d := ix.span(ix.composed(i), i%composeRun)
	return ix.entry(i, e, d)
}

// ComposeBuffer returns a buffer that ComposeInto can compose n entries into,
// one after another.
func (ix *Index) ComposeBuffer(n int) []float64 {
	return make([]float64, n*ix.depth+2*ix.depth+1)
}

// ComposeInto composes entry i at the start of buf without reading or
// building the composed-run cache, and returns it as At does, its slices
// aliasing buf, with the rest of buf: where the next entry is composed. That
// entry overwrites this one's shares and leaf priority, so read them first;
// its vector stays. buf comes from ComposeBuffer, or is the rest of an
// earlier ComposeInto.
func (ix *Index) ComposeInto(i int, buf []float64) (IndexEntry, []float64) {
	var steps [8]step // more levels allocate
	path := ix.root.descend(int32(i), steps[:0])
	scorePath(ix.cfg, path, buf)
	return ix.entry(i, buf, len(path)), buf[len(path):]
}

// entry returns entry i over its composed values e, for a leaf d levels deep.
func (ix *Index) entry(i int, e []float64, d int) IndexEntry {
	target, actual := 1.0, 1.0
	for l := range d {
		target *= e[d+l]
		actual *= e[2*d+l]
	}
	return IndexEntry{
		Entry: vector.Entry{
			User:       ix.users[i],
			Vec:        vector.Vector(e[:d:d]),
			PathShares: e[d : 2*d : 2*d],
			PathUsage:  e[2*d : 3*d : 3*d],
		},
		LeafPriority: e[3*d],
		Target:       target,
		Actual:       actual,
	}
}

// User returns the leaf name at position i.
func (ix *Index) User(i int) string { return ix.users[i] }

// SegmentRange returns segment s's entry positions [lo, hi): the leaves
// below the root's s-th member, as the root's leaf-count prefix counts them.
func (ix *Index) SegmentRange(s int) (lo, hi int) {
	if p := ix.root.prefix; p != nil {
		return int(p[s]), int(p[s+1])
	}
	return s, s + 1
}

// Segments returns the number of segments: the root's members.
func (ix *Index) Segments() int { return len(ix.root.usage) }

// SegmentShares writes the target-share and the usage-share product of each
// of segment s's leaves, in DFS order, into target and actual, which must
// hold one value per leaf of the segment, without touching (or building) the
// composed runs. Both products are folded down the segment's subtree in the
// tree, left to right — 1·s₀·s₁·s₂… and 1·us₀·us₁·us₂…, the float sequences
// At folds into IndexEntry.Target and Actual (1·x is exact) — so a drift
// pass over these columns is bit-identical to one over entries.
func (ix *Index) SegmentShares(s int, target, actual []float64) {
	root := ix.root
	share, us := root.shares[s], usageShare(root.usage[s], root.total)
	if g := root.subAt(s); g != nil {
		foldShares(g, share, us, target, actual)
	} else {
		target[0], actual[0] = share, us
	}
}

// foldShares writes the target-share and usage-share products of every leaf
// below g, in DFS order, into target and actual, with t and a the products
// down to g, and returns what of them is left.
func foldShares(g *group, t, a float64, target, actual []float64) ([]float64, []float64) {
	for i, u := range g.usage {
		ti, ai := t*g.shares[i], a*usageShare(u, g.total)
		if s := g.subAt(i); s != nil {
			target, actual = foldShares(s, ti, ai, target, actual)
		} else {
			target[0], actual[0] = ti, ai
			target, actual = target[1:], actual[1:]
		}
	}
	return target, actual
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
