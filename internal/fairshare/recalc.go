package fairshare

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// recalcGen issues process-unique clone-generation numbers, so nodes cloned
// by one engine can never be mistaken for another engine's (or another
// pass's) clones, even when trees are handed between engines.
var recalcGen atomic.Uint64

// Recalc is a persistent incremental recomputation engine: it keeps the
// previously computed Tree/Index pair and turns a usage delta set into a new
// snapshot in O(dirty·depth) tree work instead of a full O(users) rebuild.
// It owns no per-leaf table of its own: a leaf's position, root-to-leaf path
// and current usage are read from the pair (Index.positions, Index.path, the
// leaf's Node).
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
// overwrites, fanned out through par.For when the dirty population is
// large); clean subtrees re-publish as pointer copies. That takes the
// per-refresh materialization floor from O(users·depth) to
// O(dirty·depth + segments).
//
// All outputs are bit-identical to a from-scratch Compute+NewIndex over the
// merged usage map: usage sums are re-folded left-to-right in the exact
// child order of the full build (never adjusted by ±delta, which would
// change float rounding), scoring calls the same score function, and interned
// heads hold the very same floats the flat arenas used to.
//
// A Recalc is NOT safe for concurrent use; the FCS drives it under its
// refresh mutex. Published snapshots remain safe for lock-free readers:
// Apply only ever writes to freshly cloned nodes and freshly allocated
// segment tails.
type Recalc struct {
	tree  *Tree
	index *Index
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
	return &Recalc{tree: t, index: ix}
}

// Reset re-anchors the engine on a new full rebuild. Call it after any full
// Compute+NewIndex (tree edit, projection config change, a Full usage set).
func (r *Recalc) Reset(t *Tree, ix *Index) {
	r.tree, r.index = t, ix
}

// clone returns this pass's mutable copy of n, with its own Children slice
// (the children may be swapped for clones in turn).
func (r *Recalc) clone(n *Node) *Node {
	c := *n
	c.Children = append([]*Node(nil), n.Children...)
	c.gen = r.gen
	return &c
}

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
	var st RecalcStats
	if r.tree == nil || r.index == nil {
		return nil, nil, st, errors.New("fairshare: Recalc not initialized")
	}
	old, oldRoot := r.index, r.tree.Root
	st.TotalLeaves = old.Len()
	if leaves := leafCount(oldRoot); leaves != old.Len() {
		return nil, nil, st, fmt.Errorf("fairshare: Recalc tree/index mismatch (%d leaves vs %d entries)",
			leaves, old.Len())
	}

	// Phase 1: resolve the deltas to leaf positions, dropping users the
	// policy does not know. Map iteration order does not matter: every later
	// phase re-derives values from canonical child order.
	listed := r.dirtyBuf[:0]
	for user, val := range deltas {
		for _, p := range old.positions(user, r.posBuf[:0]) {
			listed = append(listed, dirtyLeaf{pos: p, val: val})
		}
	}

	// Phase 2: drop bitwise no-ops and clone, copy-on-write, the root-to-leaf
	// spine of every leaf that is left. The no-op test reads the leaf's own
	// Usage, reached by the pointers the cloning follows a moment later, so a
	// listed leaf costs one descent and the engine keeps no usage column.
	// Clones are tagged with this pass's generation number so later phases
	// can tell them from immutable shared nodes without a map.
	r.gen = recalcGen.Add(1)
	cfg := r.tree.Config
	newRoot := oldRoot // this pass's clone of it from the first dirty leaf on
	// Position order is the order the build allocated the leaves' nodes in,
	// so the descents below move forwards through memory, not at random.
	slices.SortFunc(listed, func(a, b dirtyLeaf) int { return int(a.pos) - int(b.pos) })
	dirty := listed[:0]
	spine := r.spineBuf[:0]
	// Keep the capacity for the next pass but not the pointers: the sort
	// below moves the root clone to the end, where a later, shorter spine
	// would not overwrite it, and one stale root pins a whole superseded
	// generation of the tree.
	defer func() {
		clear(spine)
		r.spineBuf = spine[:0]
	}()
	for _, d := range listed {
		leaf := old.leaf(newRoot, d.pos)
		if leaf == nil {
			return nil, nil, st, fmt.Errorf("fairshare: entry %d (%s) has no node in the tree", d.pos, old.users[d.pos])
		}
		if sameBits(leaf.Usage, d.val) {
			continue
		}
		dirty = append(dirty, d)
		if newRoot == oldRoot {
			newRoot = r.clone(oldRoot)
			spine = append(spine, spineNode{newRoot, 0})
			st.ClonedNodes++
		}
		n := newRoot
		for k, ci := range old.path[old.offs[d.pos]:old.offs[d.pos+1]] {
			ch := n.Children[ci]
			if ch.gen != r.gen {
				ch = r.clone(ch)
				if len(ch.Children) > 0 {
					spine = append(spine, spineNode{ch, int32(k + 1)})
				}
				n.Children[ci] = ch
				st.ClonedNodes++
			}
			n = ch
		}
		n.Usage = d.val // n is the cloned dirty leaf
	}
	r.dirtyBuf = dirty
	if len(dirty) == 0 {
		return r.tree, r.index, st, nil
	}
	st.DirtyLeaves = len(dirty)

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
	st.SharedNodes = int(oldRoot.nodes) - st.ClonedNodes
	rescoreDone := time.Now()

	// Phase 5: re-materialize the value half of the index along the segment
	// seam. Every snapshot gets fresh interned heads (the root usage
	// denominator shifted, so every top-level child's scored values may have
	// changed — two floats per segment absorb that). Tail arenas rebuild
	// only for segments containing a dirty leaf, fanned out through par.For
	// when the dirty population is large; every other segment's tail is
	// re-published as a pointer copy, with no per-leaf work at all.
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
	par.For(work, len(dirtySegs), func(_, k int) {
		s := dirtySegs[k]
		tails[s] = r.rebuildSeg(s, newRoot.Children[s])
	})
	for _, s := range dirtySegs {
		if tails[s] == nil {
			return nil, nil, st, fmt.Errorf("fairshare: incremental walk of segment %d does not produce the %d entries the index holds for it",
				s, old.segs[s].hi-old.segs[s].lo)
		}
	}
	st.MaterializedSegments = len(dirtySegs)
	st.SharedSegments = S - len(dirtySegs)

	// Commit: adopt the new state.
	newTree := &Tree{Root: newRoot, Config: cfg}
	newIndex := old.withValues(headVec, headUsage, tails)
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
// the fresh tail. It returns nil when the subtree's leaves are not the ones
// the index holds for the segment (the tree changed shape behind the engine).
func (r *Recalc) rebuildSeg(s int32, c *Node) *segTail {
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
			return nil
		}
		nt.leafPrio[0] = c.Priority
		return nt
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
		return nil
	}
	return nt
}

// scoreGroupCOW rescores one sibling group through score, like scoreGroup,
// writing results into already-cloned children directly and value-cloning
// any off-path sibling whose scored fields changed bitwise. n.Usage was
// re-folded in phase 3. Off-path clones are batched into one contiguous
// arena per group (one allocation instead of one per sibling — in a dirty
// group, the shifted usage denominator typically changes every sibling);
// their Children slices stay shared, because nothing below an off-path
// sibling changed.
func (r *Recalc) scoreGroupCOW(n *Node, cfg Config, st *RecalcStats) {
	st.DirtyGroups++
	var buf []Node
	for i, c := range n.Children {
		us, prio, val := score(cfg, c.Share, c.Usage, n.Usage)
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
