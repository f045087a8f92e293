package fairshare

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// recalcGen issues process-unique clone-generation numbers, so nodes cloned
// by one engine can never be mistaken for another engine's (or another
// pass's) clones, even when trees are handed between engines.
var recalcGen atomic.Uint64

// Recalc is a persistent incremental recomputation engine: it keeps the
// previously computed Tree/Index pair plus a flattened description of every
// leaf's root-to-leaf path, and turns a usage delta set into a new snapshot
// in O(dirty·depth) tree work instead of a full O(users) rebuild.
//
// The produced snapshots are immutable and structurally share everything a
// delta does not touch: nodes off the dirty paths, the index's stripe maps
// and duplicate tables, every entry's name and target-share slice, and —
// through the index's segmented value half — the entire suffix arenas of
// top-level subtrees with no dirty leaf. Only the dirty root-to-leaf spines
// are cloned (copy-on-write), and only sibling groups containing a dirty
// node are rescored. Any delta still shifts the root group's usage
// denominator, changing every top-level sibling's scored fields — but those
// values are interned once per segment head, so absorbing the shift costs
// two floats per segment instead of a per-leaf prefix rewrite. Segment
// tails of dirty subtrees are re-materialized (flat copy plus sparse
// overwrites, fanned across a bounded worker pool when the dirty population
// is large); clean subtrees re-publish as pointer copies. That takes the
// per-refresh materialization floor from O(users·depth) to
// O(dirty·depth + segments).
//
// All outputs are bit-identical to a from-scratch Compute+NewIndex over the
// merged usage map: usage sums are re-folded left-to-right in the exact
// child order of the full build (never adjusted by ±delta, which would
// change float rounding), scoring reuses the same expressions, and interned
// heads hold the very same floats the flat arenas used to.
//
// A Recalc is NOT safe for concurrent use; the FCS drives it under its
// refresh mutex. Published snapshots remain safe for lock-free readers:
// Apply only ever writes to freshly cloned nodes and freshly allocated
// segment tails.
type Recalc struct {
	tree  *Tree
	index *Index
	// leafUsage[i] is the absolute decayed usage of leaf i (DFS order) in
	// the engine's current tree.
	leafUsage []float64
	// pathOff/pathIdx flatten each leaf's root-to-leaf child-index chain:
	// leaf i's chain is pathIdx[pathOff[i]:pathOff[i+1]], each element the
	// child index to descend at that level.
	pathOff []int32
	pathIdx []int32
	// nodes is the total node count of the tree (for stats and gauges).
	nodes int
	// gen is the clone-generation number of the current Apply pass: a node
	// with this gen is one of the pass's own (mutable) clones.
	gen uint64
	// posBuf is scratch for single-position lookups.
	posBuf [1]int32
	// dirtyBuf/spineBuf are scratch slices reused across Apply calls so
	// steady-state refreshes don't reallocate them.
	dirtyBuf []dirtyLeaf
	spineBuf []spineNode
	// segMark/dirtySegBuf track which segments this pass dirtied: a segment
	// s with segMark[s] == gen needs its tail re-materialized. Generation
	// tags make clearing free.
	segMark     []uint64
	dirtySegBuf []int32
}

// dirtyLeaf is one resolved delta: the leaf position and its new usage.
type dirtyLeaf struct {
	pos int32
	val float64
}

// spineNode is one cloned internal node and its depth (root = 0), used to
// order the bottom-up usage re-fold.
type spineNode struct {
	n     *Node
	depth int32
}

// RecalcStats describes what one Apply did.
type RecalcStats struct {
	// DirtyLeaves is the number of leaves whose usage actually changed
	// (bitwise) — no-op deltas and unknown users are dropped.
	DirtyLeaves int
	// DirtyGroups is the number of sibling groups rescored.
	DirtyGroups int
	// ClonedNodes is the number of tree nodes copied; the remaining
	// SharedNodes are pointer-shared with the previous snapshot's tree.
	ClonedNodes int
	SharedNodes int
	// TotalLeaves is the leaf population of the tree.
	TotalLeaves int
	// MaterializedSegments is the number of top-level-subtree segments whose
	// tail arenas were rebuilt; SharedSegments were re-published as pointer
	// copies.
	MaterializedSegments int
	SharedSegments       int
	// Per-phase wall time: FoldDuration covers delta resolution, spine
	// cloning and the bottom-up usage re-fold (phases 1–3); RescoreDuration
	// covers sibling-group rescoring (phase 4); MaterializeDuration covers
	// segment re-materialization and index assembly (phase 5).
	FoldDuration        time.Duration
	RescoreDuration     time.Duration
	MaterializeDuration time.Duration
}

// NewRecalc creates an engine over a freshly built tree/index pair. The pair
// must come from the same Compute (the index's entries must be the tree's
// leaves in DFS order).
func NewRecalc(t *Tree, ix *Index) *Recalc {
	r := &Recalc{}
	r.Reset(t, ix)
	return r
}

// Tree returns the engine's current tree.
func (r *Recalc) Tree() *Tree { return r.tree }

// Index returns the engine's current index.
func (r *Recalc) Index() *Index { return r.index }

// Leaves returns the engine's leaf count.
func (r *Recalc) Leaves() int { return len(r.leafUsage) }

// Nodes returns the engine's total tree node count.
func (r *Recalc) Nodes() int { return r.nodes }

// Reset re-anchors the engine on a new full rebuild, rebuilding the flat
// path tables. Call it after any full Compute+NewIndex (tree edit,
// projection config change, delta-log overflow).
func (r *Recalc) Reset(t *Tree, ix *Index) {
	n := ix.Len()
	r.tree, r.index = t, ix
	r.leafUsage = make([]float64, 0, n)
	r.pathOff = make([]int32, 0, n+1)
	r.pathIdx = r.pathIdx[:0]
	r.nodes = 0
	var idxStack []int32
	var walk func(n *Node)
	walk = func(n *Node) {
		r.nodes++
		if len(n.Children) == 0 {
			if len(idxStack) > 0 {
				r.pathOff = append(r.pathOff, int32(len(r.pathIdx)))
				r.pathIdx = append(r.pathIdx, idxStack...)
				r.leafUsage = append(r.leafUsage, n.Usage)
			}
			return
		}
		for i, c := range n.Children {
			idxStack = append(idxStack, int32(i))
			walk(c)
			idxStack = idxStack[:len(idxStack)-1]
		}
	}
	walk(t.Root)
	r.pathOff = append(r.pathOff, int32(len(r.pathIdx)))
}

// materializeParallelThreshold is the dirty-leaf population (summed over
// dirty segments) above which segment tails rebuild on a worker pool.
// Below it the goroutine fan-out costs more than the copies it spreads.
const materializeParallelThreshold = 4096

// Apply merges a usage delta set (absolute new totals per user; users absent
// from the policy are ignored, matching Compute's treatment of unknown usage
// keys) into the engine's state and returns the new immutable Tree and Index.
// A delta that changes nothing (bitwise) returns the current tree and index
// unchanged — callers can detect this via DirtyLeaves == 0 and reuse their
// published snapshot wholesale.
//
// On success the engine adopts the new state; the previous tree/index remain
// valid immutable snapshots. On error the engine is unchanged and the caller
// should fall back to a full rebuild.
func (r *Recalc) Apply(deltas map[string]float64) (*Tree, *Index, RecalcStats, error) {
	start := time.Now()
	st := RecalcStats{TotalLeaves: len(r.leafUsage)}
	if r.tree == nil || r.index == nil {
		return nil, nil, st, errors.New("fairshare: Recalc not initialized")
	}
	if len(r.leafUsage) != r.index.Len() {
		return nil, nil, st, fmt.Errorf("fairshare: Recalc tree/index mismatch (%d leaves vs %d entries)",
			len(r.leafUsage), r.index.Len())
	}

	// Phase 1: resolve dirty leaf positions, dropping bitwise no-ops and
	// users the policy does not know. Map iteration order does not matter:
	// every later phase re-derives values from canonical child order.
	dirty := r.dirtyBuf[:0]
	for user, val := range deltas {
		for _, p := range r.index.positions(user, r.posBuf[:0]) {
			if sameBits(r.leafUsage[p], val) {
				continue
			}
			dirty = append(dirty, dirtyLeaf{pos: p, val: val})
		}
	}
	r.dirtyBuf = dirty
	if len(dirty) == 0 {
		return r.tree, r.index, st, nil
	}
	st.DirtyLeaves = len(dirty)

	// Phase 2: copy-on-write clone of every dirty root-to-leaf spine. Spine
	// internals get copied Children slices (their children may be swapped);
	// dirty leaves get plain struct copies carrying the new usage. Clones
	// are tagged with this pass's generation number so later phases can tell
	// them from immutable shared nodes without a map.
	r.gen = recalcGen.Add(1)
	cfg := r.tree.Config
	oldRoot := r.tree.Root
	newRoot := &Node{}
	*newRoot = *oldRoot
	newRoot.Children = append([]*Node(nil), oldRoot.Children...)
	newRoot.gen = r.gen
	st.ClonedNodes = 1
	spine := append(r.spineBuf[:0], spineNode{newRoot, 0})
	for _, d := range dirty {
		n := newRoot
		off, end := r.pathOff[d.pos], r.pathOff[d.pos+1]
		for k := off; k < end; k++ {
			ci := int(r.pathIdx[k])
			ch := n.Children[ci]
			if ch.gen != r.gen {
				nc := &Node{}
				*nc = *ch
				nc.gen = r.gen
				if k < end-1 {
					nc.Children = append([]*Node(nil), ch.Children...)
					spine = append(spine, spineNode{nc, k - off + 1})
				}
				n.Children[ci] = nc
				st.ClonedNodes++
				ch = nc
			}
			n = ch
		}
		// n is the cloned dirty leaf.
		n.Usage = d.val
	}
	// Keep the capacity for the next pass but not the pointers: the sort
	// below moves the root clone to the end, where a later, shorter spine
	// would not overwrite it, and one stale root pins a whole superseded
	// generation of the tree.
	defer func() {
		clear(spine)
		r.spineBuf = spine[:0]
	}()

	// Phase 3: re-sum cloned internals' subtree usage bottom-up, folding
	// children left-to-right exactly like the full build (adding deltas to
	// the old sums would change float rounding and break bit-identity).
	// Deeper spines first so parents always fold final child values; nodes
	// at equal depth are independent, so the unstable sort is fine.
	slices.SortFunc(spine, func(a, b spineNode) int { return int(b.depth) - int(a.depth) })
	for _, sn := range spine {
		var u float64
		for _, c := range sn.n.Children {
			u += c.Usage
		}
		sn.n.Usage = u
	}
	foldDone := time.Now()

	// Phase 4: rescore exactly the sibling groups that contain a dirty
	// node. Off-path siblings whose scored fields change (they share the
	// dirty group's usage denominator) are value-cloned shallowly — their
	// Children slice is shared, because nothing below them changed.
	for _, sn := range spine {
		r.scoreGroupCOW(sn.n, cfg, &st)
	}
	st.SharedNodes = r.nodes - st.ClonedNodes
	rescoreDone := time.Now()

	// Phase 5: re-materialize the value half of the index along the segment
	// seam. Every snapshot gets fresh interned heads (the root usage
	// denominator shifted, so every top-level child's scored values may have
	// changed — two floats per segment absorb that). Tail arenas rebuild
	// only for segments containing a dirty leaf, fanned across a worker pool
	// when the dirty population is large; every other segment's tail is
	// re-published as a pointer copy, with no per-leaf work at all.
	old := r.index
	S := len(old.segs)
	if len(newRoot.Children) != S {
		return nil, nil, st, fmt.Errorf("fairshare: tree has %d top-level subtrees, index has %d segments",
			len(newRoot.Children), S)
	}
	if len(r.segMark) != S {
		r.segMark = make([]uint64, S)
	}
	dirtySegs := r.dirtySegBuf[:0]
	work := 0 // dirty-segment leaf population, for the parallelism gate
	for _, d := range dirty {
		s := old.segOf[d.pos]
		if r.segMark[s] != r.gen {
			r.segMark[s] = r.gen
			dirtySegs = append(dirtySegs, s)
			work += int(old.segs[s].hi - old.segs[s].lo)
		}
	}
	// A leaf hanging directly off the root keeps its raw priority in its
	// segment's tail, and the root rescore may have changed it even when the
	// leaf's own usage did not — re-materialize such segments too.
	for s, c := range newRoot.Children {
		if len(c.Children) == 0 && c.gen == r.gen && r.segMark[s] != r.gen {
			r.segMark[s] = r.gen
			dirtySegs = append(dirtySegs, int32(s))
			work++
		}
	}
	r.dirtySegBuf = dirtySegs

	headVec := make([]float64, S)
	headUsage := make([]float64, S)
	tails := make([]*segTail, S)
	copy(tails, old.tails)
	for s, c := range newRoot.Children {
		headVec[s] = c.Value
		headUsage[s] = c.UsageShare
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(dirtySegs) {
		workers = len(dirtySegs)
	}
	var rebuildErr error
	if workers > 1 && work >= materializeParallelThreshold {
		var next atomic.Int64
		errs := make([]error, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(dirtySegs) {
						return
					}
					s := dirtySegs[k]
					nt, err := r.rebuildSeg(s, newRoot.Children[s])
					if err != nil {
						errs[w] = err
						return
					}
					tails[s] = nt
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				rebuildErr = err
				break
			}
		}
	} else {
		for _, s := range dirtySegs {
			nt, err := r.rebuildSeg(s, newRoot.Children[s])
			if err != nil {
				rebuildErr = err
				break
			}
			tails[s] = nt
		}
	}
	if rebuildErr != nil {
		return nil, nil, st, rebuildErr
	}
	st.MaterializedSegments = len(dirtySegs)
	st.SharedSegments = S - len(dirtySegs)

	newIndex := &Index{
		users:     old.users,
		offs:      old.offs,
		shares:    old.shares,
		target:    old.target,
		segs:      old.segs,
		segOf:     old.segOf,
		headVec:   headVec,
		headUsage: headUsage,
		tails:     tails,
		comp:      newComposed(len(old.users)),
		stripes:   old.stripes,
		dups:      old.dups,
	}
	newTree := &Tree{Root: newRoot, Config: cfg}

	// Commit: adopt the new state. leafUsage/path tables are positionally
	// stable because the tree structure did not change.
	for _, d := range dirty {
		r.leafUsage[d.pos] = d.val
	}
	r.tree, r.index = newTree, newIndex
	st.FoldDuration = foldDone.Sub(start)
	st.RescoreDuration = rescoreDone.Sub(foldDone)
	st.MaterializeDuration = time.Since(rescoreDone)
	return newTree, newIndex, st, nil
}

// rebuildSeg re-materializes one dirty segment's tail: a flat copy of the
// previous tail (shared suffixes come along for free) followed by a walk of
// the segment's subtree that overwrites only what changed, pruning at shared
// (un-cloned) subtrees — their contiguous leaf ranges get just the changed
// ancestor prefix written. Safe to call from several goroutines for
// different segments: it reads only immutable engine state and writes only
// the fresh tail.
func (r *Recalc) rebuildSeg(s int32, c *Node) (*segTail, error) {
	old := r.index
	m := old.segs[s]
	lo, hi := int(m.lo), int(m.hi)
	ot := old.tails[s]
	nt := &segTail{
		vec:      make([]float64, len(ot.vec)),
		usage:    make([]float64, len(ot.usage)),
		leafPrio: make([]float64, len(ot.leafPrio)),
	}
	copy(nt.vec, ot.vec)
	copy(nt.usage, ot.usage)
	copy(nt.leafPrio, ot.leafPrio)
	if len(c.Children) == 0 {
		// The top-level child is itself a leaf: the segment has no tail
		// levels, only the raw priority.
		if hi-lo != 1 {
			return nil, fmt.Errorf("fairshare: incremental walk found a leaf segment spanning %d entries", hi-lo)
		}
		nt.leafPrio[0] = c.Priority
		return nt, nil
	}
	base := int(old.offs[lo])
	pos := lo
	ok := true
	var vecStack, usageStack []float64
	var down func(nd *Node)
	down = func(nd *Node) {
		if !ok {
			return
		}
		if len(nd.Children) == 0 {
			// A cloned leaf: rewrite its whole tail range. The stacks hold
			// levels 1..depth-1 (the walk starts below the interned head).
			d := len(vecStack)
			if pos >= hi || int(old.offs[pos+1]-old.offs[pos])-1 != d {
				ok = false
				return
			}
			to := int(old.offs[pos]) - base - (pos - lo)
			copy(nt.vec[to:to+d], vecStack)
			copy(nt.usage[to:to+d], usageStack)
			nt.leafPrio[pos-lo] = nd.Priority
			pos++
			return
		}
		for _, ch := range nd.Children {
			if ch.gen == r.gen {
				vecStack = append(vecStack, ch.Value)
				usageStack = append(usageStack, ch.UsageShare)
				down(ch)
				vecStack = vecStack[:len(vecStack)-1]
				usageStack = usageStack[:len(usageStack)-1]
				continue
			}
			// Shared subtree: its entries keep their old tail values from
			// this depth down (already in place from the flat copy); only
			// the changed ancestor prefix needs writing.
			j := len(vecStack)
			cnt := int(ch.leaves)
			if pos+cnt > hi {
				ok = false
				return
			}
			if j > 0 {
				for i := pos; i < pos+cnt; i++ {
					to := int(old.offs[i]) - base - (i - lo)
					copy(nt.vec[to:to+j], vecStack)
					copy(nt.usage[to:to+j], usageStack)
				}
			}
			pos += cnt
		}
	}
	down(c)
	if !ok || pos != hi {
		return nil, fmt.Errorf("fairshare: incremental walk produced %d entries, segment has %d", pos-lo, hi-lo)
	}
	return nt, nil
}

// scoreGroupCOW rescores one sibling group with scoreGroup's exact
// arithmetic, writing results into already-cloned children directly and
// value-cloning any off-path sibling whose scored fields changed bitwise.
// Off-path clones are batched into one contiguous arena per group (one
// allocation instead of one per sibling — in a dirty group, the shifted
// usage denominator typically changes every sibling); their Children slices
// stay shared, because nothing below an off-path sibling changed.
func (r *Recalc) scoreGroupCOW(n *Node, cfg Config, st *RecalcStats) {
	st.DirtyGroups++
	// n.Usage was re-folded in phase 3 with the same left-to-right order
	// scoreGroup uses for its groupUsage, so reuse it.
	groupUsage := n.Usage
	k := cfg.DistanceWeight
	bal := cfg.Balance()
	var buf []Node
	for i, c := range n.Children {
		us := 0.0
		if groupUsage > 0 {
			us = c.Usage / groupUsage
		}
		abs := c.Share - us
		rel := 0.0
		if c.Share > 0 {
			rel = math.Max(0, math.Min(1, (c.Share-us)/c.Share))
		}
		prio := k*rel + (1-k)*abs
		v := bal * (1 + prio)
		val := math.Max(0, math.Min(cfg.Resolution-1e-9, v))
		if c.gen == r.gen {
			c.UsageShare, c.Priority, c.Value = us, prio, val
			continue
		}
		if sameBits(c.UsageShare, us) && sameBits(c.Priority, prio) && sameBits(c.Value, val) {
			continue
		}
		if buf == nil {
			// At most the remaining siblings that are not already this
			// pass's clones can need cloning, so buf never reallocates and
			// the pointers handed out below stay valid. (Counting them
			// matters when much of a group is dirty: slots reserved for
			// nodes that have their own clone are dead weight for as long
			// as the arena lives.)
			need := 0
			for _, rc := range n.Children[i:] {
				if rc.gen != r.gen {
					need++
				}
			}
			buf = make([]Node, 0, need)
		}
		buf = append(buf, *c)
		nc := &buf[len(buf)-1]
		nc.UsageShare, nc.Priority, nc.Value = us, prio, val
		nc.gen = r.gen
		n.Children[i] = nc
		st.ClonedNodes++
	}
}

// sameBits reports bitwise float equality (distinguishing ±0, treating any
// NaN payload as equal to itself) — the equality that matters for snapshot
// bit-identity.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
