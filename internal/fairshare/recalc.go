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

// recalcGen issues process-unique clone-generation numbers, so groups cloned
// by one engine can never be mistaken for another engine's (or another
// pass's) clones, even when trees are handed between engines.
var recalcGen atomic.Uint64

// Recalc is a persistent incremental recomputation engine: it keeps the
// previously computed Tree/Index pair and turns a usage delta set into a new
// snapshot in O(dirty·depth) tree work instead of a full O(users) rebuild.
// It owns no per-leaf table of its own: a leaf's position and root-to-leaf
// path are read from the index, and its usage from its group's column in the
// tree, the one holder of usage.
//
// The produced snapshots are immutable and structurally share everything a
// delta does not touch: groups off the dirty paths, the index's stripe maps
// and duplicate tables, every entry's name and target-share slice, and —
// through the index's segmented value half — the entire suffix arenas of
// top-level subtrees with no dirty leaf. Only the groups on dirty
// root-to-leaf paths are cloned (copy-on-write, with their usage columns).
// The tree stores no scores, so nothing else is: the scores a delta changes
// are computed while the dirty segments' tails are written. Any delta still
// shifts the root group's usage denominator, changing every top-level
// member's scores — but those values are interned once per segment head, so
// absorbing the shift costs two floats per segment instead of a per-leaf
// prefix rewrite. Segment tails of dirty subtrees are re-materialized (flat
// copy plus sparse overwrites, fanned out through par.For when the dirty
// population is large); clean subtrees re-publish as pointer copies. That
// takes the per-refresh floor from O(users·depth) to
// O(dirty·depth + segments).
//
// All outputs are bit-identical to a from-scratch Compute+NewIndex over the
// merged usage map: usage sums are re-folded left-to-right by the build's own
// fold (never adjusted by ±delta, which would change float rounding), and
// every score comes from the same score function by way of group.member, on
// the same inputs.
//
// A Recalc is NOT safe for concurrent use; the FCS drives it under its
// refresh mutex. Published snapshots remain safe for lock-free readers:
// Apply only ever writes to freshly cloned groups and freshly allocated
// segment tails.
type Recalc struct {
	tree  *Tree
	index *Index
	// gen is the clone-generation number of the current Apply pass: a group
	// with this gen is one of the pass's own (mutable) clones.
	gen uint64
	// posBuf is scratch for single-position lookups.
	posBuf [1]int32
	// dirtyBuf/spineBuf are scratch slices reused across Apply calls so
	// steady-state refreshes don't reallocate them.
	dirtyBuf []dirtyLeaf
	spineBuf []spineGroup
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

// spineGroup is one cloned group and its depth (root = 0), used to order the
// bottom-up usage re-fold.
type spineGroup struct {
	g     *group
	depth int32
}

// RecalcStats describes what one Apply did.
type RecalcStats struct {
	// DirtyLeaves is the number of leaves whose usage actually changed
	// (bitwise) — no-op deltas and unknown users are dropped.
	DirtyLeaves int
	// ClonedNodes is the number of tree groups copied; the remaining
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
	// cloning and the bottom-up usage re-fold; MaterializeDuration covers
	// scoring the dirty groups into the segment heads and tails, and index
	// assembly.
	FoldDuration        time.Duration
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

// clone returns this pass's mutable copy of g, with its own usage column and
// sub-group slice (the sub-groups may be swapped for clones in turn).
func (r *Recalc) clone(g *group) *group {
	c := *g
	c.usage = append([]float64(nil), g.usage...)
	if g.sub != nil {
		c.sub = append([]*group(nil), g.sub...)
	}
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
	old, oldRoot := r.index, r.tree.root
	st.TotalLeaves = old.Len()
	if leaves := int(oldRoot.leaves); leaves != old.Len() {
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

	// Phase 2: drop bitwise no-ops and clone, copy-on-write, the groups on
	// the root-to-leaf path of every leaf that is left, then write the
	// leaf's usage into its (cloned) group's column. The no-op test reads
	// that column entry, reached by the pointers the cloning follows a
	// moment later, so a listed leaf costs one descent. Clones are tagged
	// with this pass's generation number so later phases can tell them from
	// immutable shared groups without a map.
	r.gen = recalcGen.Add(1)
	cfg := r.tree.Config
	newRoot := oldRoot // this pass's clone of it from the first dirty leaf on
	// Position order is the order the build allocated the groups in, so the
	// descents below move forwards through memory, not at random.
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
		g, ci := old.leafGroup(newRoot, d.pos)
		if g == nil {
			return nil, nil, st, fmt.Errorf("fairshare: entry %d (%s) has no leaf in the tree", d.pos, old.users[d.pos])
		}
		if sameBits(g.usage[ci], d.val) {
			continue
		}
		dirty = append(dirty, d)
		if newRoot == oldRoot {
			newRoot = r.clone(oldRoot)
			spine = append(spine, spineGroup{newRoot, 0})
			st.ClonedNodes++
		}
		g = newRoot
		path := old.path[old.offs[d.pos]:old.offs[d.pos+1]]
		for k, ci := range path[:len(path)-1] {
			s := g.sub[ci]
			if s.gen != r.gen {
				s = r.clone(s)
				spine = append(spine, spineGroup{s, int32(k + 1)})
				g.sub[ci] = s
				st.ClonedNodes++
			}
			g = s
		}
		g.usage[ci] = d.val // g is the leaf's cloned group
	}
	r.dirtyBuf = dirty
	if len(dirty) == 0 {
		return r.tree, r.index, st, nil
	}
	st.DirtyLeaves = len(dirty)
	st.SharedNodes = int(oldRoot.groups) - st.ClonedNodes

	// Phase 3: re-fold cloned groups bottom-up with the build's own fold.
	// Deeper groups first so parents always fold final sub-group totals;
	// groups at equal depth are independent, so the unstable sort is fine.
	slices.SortFunc(spine, func(a, b spineGroup) int { return int(b.depth) - int(a.depth) })
	for _, sg := range spine {
		sg.g.fold()
	}
	foldDone := time.Now()

	// Phase 4: re-materialize the value half of the index along the segment
	// seam. Every snapshot gets fresh interned heads (the root usage
	// denominator shifted, so every top-level member's scores may have
	// changed — two floats per segment absorb that). Tail arenas rebuild
	// only for segments containing a dirty leaf, fanned out through par.For
	// when the dirty population is large; every other segment's tail is
	// re-published as a pointer copy, with no per-leaf work at all.
	S := len(old.segs)
	if len(newRoot.usage) != S {
		return nil, nil, st, fmt.Errorf("fairshare: tree has %d top-level subtrees, index has %d segments",
			len(newRoot.usage), S)
	}
	if len(r.segMark) != S {
		r.segMark = make([]uint64, S)
	}
	dirtySegs := r.dirtySegBuf[:0]
	work := 0 // dirty-segment leaf population, for the parallelism gate
	mark := func(s int32) {
		if r.segMark[s] != r.gen {
			r.segMark[s] = r.gen
			dirtySegs = append(dirtySegs, s)
			work += int(old.segs[s].hi - old.segs[s].lo)
		}
	}
	for _, d := range dirty {
		mark(old.seg(int(d.pos)))
	}
	headVec := make([]float64, S)
	headUsage := make([]float64, S)
	for s := range newRoot.usage {
		m := newRoot.member(cfg, s)
		headVec[s], headUsage[s] = m.Value, m.UsageShare
		// A leaf hanging directly off the root keeps its raw priority in its
		// segment's tail, and the root's new usage may have changed it even
		// when the leaf's own usage did not.
		if m.Leaf && !r.tailHolds(int32(s), m.Priority) {
			mark(int32(s))
		}
	}
	r.dirtySegBuf = dirtySegs

	tails := make([]*segTail, S)
	copy(tails, old.tails)
	par.For(work, len(dirtySegs), func(_, k int) {
		s := dirtySegs[k]
		tails[s] = r.rebuildSeg(newRoot, s)
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
	newTree := &Tree{root: newRoot, Config: cfg}
	newIndex := old.withValues(headVec, headUsage, tails)
	r.tree, r.index = newTree, newIndex
	st.FoldDuration = foldDone.Sub(start)
	st.MaterializeDuration = time.Since(foldDone)
	return newTree, newIndex, st, nil
}

// tailHolds reports whether segment s is one leaf whose published raw
// priority is prio, bitwise.
func (r *Recalc) tailHolds(s int32, prio float64) bool {
	m := r.index.segs[s]
	return m.hi-m.lo == 1 && sameBits(r.index.tails[s].leafPrio[0], prio)
}

// rebuildSeg re-materializes one dirty segment's tail: a flat copy of the
// previous tail (shared suffixes come along for free) followed by a walk of
// the segment's subtree that scores the members of every cloned group and
// overwrites only what changed, pruning at shared (un-cloned) sub-groups —
// their contiguous leaf ranges get just the rescored prefix down to the
// sub-group's own level written. Safe to call from several goroutines for
// different segments: it reads only immutable engine state and writes only
// the fresh tail. It returns nil when the subtree's leaves are not the ones
// the index holds for the segment (the tree changed shape behind the engine).
func (r *Recalc) rebuildSeg(root *group, s int32) *segTail {
	cfg := r.tree.Config
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
	c := root.subAt(int(s))
	if c == nil {
		// The top-level member is itself a leaf: the segment has no tail
		// levels, only the raw priority.
		if hi-lo != 1 {
			return nil
		}
		nt.leafPrio[0] = root.member(cfg, int(s)).Priority
		return nt
	}
	base := int(old.offs[lo])
	pos := lo
	ok := true
	// tail returns where entry i's tail starts in the segment's arenas and
	// how many levels it holds.
	tail := func(i int) (off, levels int) {
		return int(old.offs[i]) - base - (i - lo), int(old.offs[i+1]-old.offs[i]) - 1
	}
	// The stacks hold levels 1..depth-1 (the walk starts below the interned
	// head).
	var vecStack, usageStack []float64
	var down func(g *group)
	down = func(g *group) {
		for i := range g.usage {
			if !ok {
				return
			}
			mb := g.member(cfg, i)
			vecStack = append(vecStack, mb.Value)
			usageStack = append(usageStack, mb.UsageShare)
			d := len(vecStack)
			switch sub := g.subAt(i); {
			case sub == nil:
				// A leaf of a cloned group: rewrite its whole tail range.
				if pos >= hi {
					ok = false
					return
				}
				to, levels := tail(pos)
				if levels != d {
					ok = false
					return
				}
				copy(nt.vec[to:to+d], vecStack)
				copy(nt.usage[to:to+d], usageStack)
				nt.leafPrio[pos-lo] = mb.Priority
				pos++
			case sub.gen == r.gen:
				down(sub)
			default:
				// Shared sub-group: its entries keep their old tail values
				// below its own level (already in place from the flat copy);
				// only the prefix down to that level needs writing.
				cnt := int(sub.leaves)
				if pos+cnt > hi {
					ok = false
					return
				}
				for j := pos; j < pos+cnt; j++ {
					to, levels := tail(j)
					if levels < d {
						ok = false
						return
					}
					copy(nt.vec[to:to+d], vecStack)
					copy(nt.usage[to:to+d], usageStack)
				}
				pos += cnt
			}
			vecStack = vecStack[:d-1]
			usageStack = usageStack[:d-1]
		}
	}
	down(c)
	if !ok || pos != hi {
		return nil
	}
	return nt
}

// sameBits reports bitwise float equality (distinguishing ±0, treating any
// NaN payload as equal to itself) — the equality that matters for snapshot
// bit-identity.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
