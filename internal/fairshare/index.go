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
// priority and the two path products. Entries are composed from the tree on
// first use and cached per snapshot; the embedded slices alias that
// immutable storage, so they can be handed out without copying but must not
// be mutated.
type IndexEntry struct {
	vector.Entry
	// LeafPriority is the raw (unprojected) priority of the user's leaf.
	LeafPriority float64
	// Target and Actual are the products of PathShares and of PathUsage,
	// folded left to right from 1 — the leaf's absolute slice of the grid
	// under the policy and under usage, with the bits the percental
	// projection and the drift pass compute from them.
	Target, Actual float64
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

// composeRun is how many consecutive entries share one composed-run slot and
// its buffer: the buffer is allocated when the first of them is asked for,
// and each entry is composed into it when it is itself asked for. At most
// 32, the bits of composedRun.done.
const composeRun = 16

// composedRun caches the composed full-depth values of the entries of one
// run of composeRun consecutive entries that At has been asked for, for the
// life of the snapshot. done has bit k set once the run's k-th entry is
// composed; it is stored only after the entry's values (and, the first time,
// base and buf) are written, so a lock-free reader that observes its bit
// sees them. A composed entry is never written again. Never copy a
// composedRun (it embeds a Mutex); access elements of Index.comp by pointer
// only.
type composedRun struct {
	mu   sync.Mutex
	done atomic.Uint32
	// base is the run's first entry's offset in full-depth coordinates
	// (Index.offs).
	base int32
	// buf holds each entry of the run in turn: its vector, its per-level
	// usage shares, its raw leaf priority and its target and usage
	// products, so a warm lookup reads one contiguous stretch (see
	// runOffset).
	buf []float64
}

// Index is an immutable O(1) lookup table over a fairshare tree's leaves.
// It is what lets the FCS serve `Priority()` without searching the tree: "no
// real-time calculations need to take place when new jobs arrive". An Index
// is safe for concurrent use by any number of readers because construction
// publishes only immutable state (the lazy composed-run and projection
// views are built under their own synchronization).
//
// The index stores no scores. It holds the identity half of the leaves —
// user names, per-entry offsets, target shares and their per-leaf product,
// child-index paths, the segment table, the striped user→position tables and
// the duplicate table — which depends only on the policy topology, so an
// incremental rebuild (see Recalc) shares it wholesale with the previous
// index (withRoot). The scores are computed from the tree's usage columns
// where they are read: At composes the entries asked for, SegmentShares
// folds a segment's usage products for the FCS's drift pass.
type Index struct {
	// users[i] is the leaf name at entry position i (DFS order).
	users []string
	// offs[i] is the start of entry i's per-level values in full-depth
	// coordinates (level 0 included); entry i spans [offs[i], offs[i+1])
	// and its depth is the difference. len(offs) == len(users)+1.
	offs []int32
	// shares holds every entry's normalized target shares, flattened per
	// offs. Target shares change only with the policy, never with usage.
	shares []float64
	// target[i] is the product of entry i's target shares, folded left to
	// right from 1 — the leaf's absolute slice of the grid under the policy,
	// which the drift pass reads instead of re-multiplying the path.
	target []float64
	// path holds every entry's child indexes from the root down to its leaf,
	// flattened per offs like shares (level 0 is the entry's segment): how
	// the readers and Recalc find a leaf's groups and column entry in the
	// tree.
	path []int32
	// segs[s] is segment s's leaf range.
	segs []segMeta

	// root and cfg are the tree the scores are read from: its groups hold
	// the usage columns, and cfg is its normalized Config.
	root *group
	cfg  Config

	// comp caches composed full-depth values for At(), one slot per run of
	// composeRun entries. Filled lazily so the refresh path never pays for
	// composition; serving-path Table/At callers compose each entry at most
	// once per snapshot.
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
	// projEntries is a lazily built []vector.Entry view over the composed
	// runs, sharing their storage, so projections run without re-walking or
	// re-copying. Lazy because pointwise projections never need it.
	projOnce    sync.Once
	projEntries []vector.Entry
}

// NewIndex builds the index of a computed tree, one segment per top-level
// child. Every tree size runs the same code — the segments are filled
// through par.For (their ranges are disjoint, and the per-group leaf counts
// cached at build time give exact offsets), then the stripe tables are built
// from the filled name column — so the result cannot depend on the core
// count.
func NewIndex(t *Tree) *Index {
	n := int(t.root.leaves)
	ix := &Index{root: t.root, cfg: t.Config, comp: newComposed(n)}
	bases := ix.initLayout(t.root, n)
	stripe := make([]uint8, n) // stripe[i] = stripeOf(slot.Hash(users[i]))
	par.For(n, len(t.root.usage), func(_, s int) {
		ix.fillSegment(t, s, bases, stripe)
	})
	ix.buildStripes(stripe)
	return ix
}

// initLayout sizes the identity columns from an integer-only pre-pass over
// the root's children: segment boundaries and column extents. It returns each
// segment's full-depth base (len S+1, last element the total size) — passed
// around explicitly rather than read back out of offs, so parallel segment
// fills never read a boundary offset another goroutine is writing.
func (ix *Index) initLayout(root *group, n int) []int32 {
	S := len(root.usage)
	ix.users = make([]string, n)
	ix.offs = make([]int32, n+1)
	ix.target = make([]float64, n)
	ix.segs = make([]segMeta, S)
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
// the identity columns (users, offs, shares, target, path), and each leaf's
// stripe id into stripe.
func (ix *Index) fillSegment(t *Tree, s int, bases []int32, stripe []uint8) {
	ai := int(bases[s]) // full-depth cursor
	pos := int(ix.segs[s].lo)
	w := leafWalk{cfg: t.Config}
	w.descend(t.root, s, func(leaf Member, w *leafWalk) bool {
		d := len(w.shares)
		copy(ix.shares[ai:ai+d], w.shares)
		copy(ix.path[ai:ai+d], w.path)
		target := 1.0
		for _, sh := range w.shares {
			target *= sh
		}
		ix.target[pos] = target
		ai += d
		ix.users[pos] = leaf.Name
		stripe[pos] = uint8(stripeOf(slot.Hash(leaf.Name)))
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
// below g, with g's members at the given level — the column space the
// subtree's entries occupy in shares and path.
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

// withRoot returns the index of a tree of the same shape with other usage,
// rooted at root: it shares ix's identity half by pointer.
func (ix *Index) withRoot(root *group) *Index {
	return &Index{
		users:   ix.users,
		offs:    ix.offs,
		shares:  ix.shares,
		target:  ix.target,
		path:    ix.path,
		segs:    ix.segs,
		root:    root,
		cfg:     ix.cfg,
		comp:    newComposed(len(ix.users)),
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

// newComposed returns the empty composed-run cache of an n-entry snapshot.
func newComposed(n int) []composedRun {
	return make([]composedRun, (n+composeRun-1)/composeRun)
}

// composed returns the run entry i belongs to, with entry i composed. The
// double-checked atomic keeps the hot path allocation- and lock-free once the
// entry is.
func (ix *Index) composed(i int) *composedRun {
	c := &ix.comp[i/composeRun]
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

// compose writes entry i into its run's buffer, allocating the buffer first
// if the run has none: it walks the entry's path down the tree, scores the
// member it takes at every level and folds the two path products as it goes
// (1·s₀·s₁…, 1·us₀·us₁…: the float sequence of a fold over the entry's
// PathShares and PathUsage, and of SegmentShares). The caller holds c.mu.
func (ix *Index) compose(c *composedRun, i int) {
	lo := i - i%composeRun
	if c.buf == nil {
		hi := min(lo+composeRun, len(ix.users))
		c.base = ix.offs[lo]
		c.buf = make([]float64, runOffset(hi-lo, int(ix.offs[hi]-c.base)))
	}
	o, end := ix.offs[i], ix.offs[i+1]
	d := int(end - o)
	at := runOffset(i-lo, int(o-c.base))
	e := c.buf[at : at+2*d+3]
	shares := ix.shares[o:end]
	g := ix.root
	target, actual := 1.0, 1.0
	for l, ci := range ix.path[o:end] {
		var prio float64
		e[d+l], prio, e[l] = score(ix.cfg, shares[l], g.usage[ci], g.total)
		target *= shares[l]
		actual *= e[d+l]
		if l < d-1 {
			g = g.sub[ci]
		} else {
			e[2*d] = prio
		}
	}
	e[2*d+1], e[2*d+2] = target, actual
}

// At returns the entry at position i, composed from the tree. The entry's
// slices alias immutable per-snapshot storage (the entry's stretch of its
// run's buffer); callers must not mutate them.
func (ix *Index) At(i int) IndexEntry {
	c := ix.composed(i)
	o, end := ix.offs[i], ix.offs[i+1]
	d := int(end - o)
	at := runOffset(i%composeRun, int(o-c.base))
	return IndexEntry{
		Entry: vector.Entry{
			User:       ix.users[i],
			Vec:        vector.Vector(c.buf[at : at+d : at+d]),
			PathShares: ix.shares[o:end:end],
			PathUsage:  c.buf[at+d : at+2*d : at+2*d],
		},
		LeafPriority: c.buf[at+2*d],
		Target:       c.buf[at+2*d+1],
		Actual:       c.buf[at+2*d+2],
	}
}

// runOffset is where the k-th entry of a run starts in the run's buffer,
// given how far its levels start past the run's first entry's (offs): each
// entry before it takes two values per level, its leaf priority and its two
// path products.
func runOffset(k, levels int) int { return 2*levels + 3*k }

// User returns the leaf name at position i.
func (ix *Index) User(i int) string { return ix.users[i] }

// SegmentRange returns segment s's entry positions [lo, hi).
func (ix *Index) SegmentRange(s int) (lo, hi int) {
	m := ix.segs[s]
	return int(m.lo), int(m.hi)
}

// SegmentShares streams segment s's flat share columns without touching (or
// building) the composed runs: it returns each leaf's target-share product
// (identity storage, read-only) and writes each leaf's usage-share product
// into actual, which must hold one value per leaf of the segment. The usage
// product is folded down the segment's subtree in the tree, left to right —
// 1·us₀·us₁·us₂…, the float sequence a fold over At(i).PathUsage multiplies
// (1·x is exact), and the one compose folds into IndexEntry.Actual — so a
// drift pass over these columns is bit-identical to one over entries.
func (ix *Index) SegmentShares(s int, actual []float64) (target []float64) {
	m := ix.segs[s]
	head := usageShare(ix.root.usage[s], ix.root.total)
	if g := ix.root.subAt(s); g != nil {
		foldUsage(g, head, actual)
	} else {
		actual[0] = head
	}
	return ix.target[m.lo:m.hi:m.hi]
}

// foldUsage writes the usage-share product of every leaf below g, in DFS
// order, into out, with prefix the product down to g, and returns what of
// out is left.
func foldUsage(g *group, prefix float64, out []float64) []float64 {
	for i, u := range g.usage {
		a := prefix * usageShare(u, g.total)
		if s := g.subAt(i); s != nil {
			out = foldUsage(s, a, out)
		} else {
			out[0] = a
			out = out[1:]
		}
	}
	return out
}

// Segments returns the number of top-level-subtree segments.
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
