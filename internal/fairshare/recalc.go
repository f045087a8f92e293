package fairshare

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// recalcGen issues process-unique clone-generation numbers, so groups cloned
// by one engine can never be mistaken for another engine's (or another
// pass's) clones, even when trees are handed between engines.
var recalcGen atomic.Uint64

// Recalc is a persistent incremental recomputation engine: it keeps the
// previously computed Tree/Index pair and turns a usage delta set into a new
// snapshot in O(dirty·depth) tree work instead of a full O(users) rebuild.
// It owns no per-leaf table of its own: a leaf's position is read from the
// index, its group is located in the tree by the groups' leaf-count prefixes,
// and its usage is read from that group's column, the one holder of usage.
//
// The produced snapshots are immutable and structurally share everything a
// delta does not touch: groups off the dirty paths, every group's share
// column and leaf-count prefix (a clone keeps its original's), and the
// index's names and lookup tables (name column, stripe and duplicate
// tables). Only the groups on dirty root-to-leaf paths are cloned
// (copy-on-write, with their usage columns) and re-folded. Neither the tree
// nor the index stores a score, so nothing else is written: the new index is
// the old one's names over the new root, and its readers compute the scores
// a delta changed where they read them.
//
// All outputs are bit-identical to a from-scratch Compute+NewIndex over the
// merged usage map: usage sums are re-folded left-to-right by the build's own
// fold (never adjusted by ±delta, which would change float rounding), and
// every score comes from the same score function, on the same inputs.
//
// A Recalc is NOT safe for concurrent use; the FCS drives it under its
// refresh mutex. Published snapshots remain safe for lock-free readers:
// Apply only ever writes to freshly cloned groups.
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
	// FoldDuration is the wall time of the whole pass: delta resolution,
	// spine cloning and the bottom-up usage re-fold.
	FoldDuration time.Duration
}

// NewRecalc creates an engine over a freshly built tree/index pair: the index
// must be NewIndex of the tree (Apply refuses any other pair).
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
	if old.root != oldRoot {
		return nil, nil, st, errors.New("fairshare: Recalc tree/index mismatch (the index was built from another tree)")
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
	// leaf's usage into its (cloned) group's column. One descent per leaf
	// records its path; the no-op test reads the leaf's column entry at the
	// path's end, and a dirty leaf's path is then cloned from the root down.
	// Clones are tagged with this pass's generation number so later phases
	// can tell them from immutable shared groups without a map.
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
	var pathBuf [8]step
	for _, d := range listed {
		path := newRoot.descend(d.pos, pathBuf[:0])
		if path == nil {
			return nil, nil, st, fmt.Errorf("fairshare: entry %d (%s) has no leaf in the tree", d.pos, old.users[d.pos])
		}
		leaf := path[len(path)-1]
		if sameBits(leaf.g.usage[leaf.i], d.val) {
			continue
		}
		dirty = append(dirty, d)
		if newRoot == oldRoot {
			newRoot = r.clone(oldRoot)
			spine = append(spine, spineGroup{newRoot, 0})
			st.ClonedNodes++
		}
		g := newRoot
		for l := 1; l < len(path); l++ {
			s := path[l].g
			if s.gen != r.gen {
				s = r.clone(s)
				spine = append(spine, spineGroup{s, int32(l)})
				g.sub[path[l-1].i] = s
				st.ClonedNodes++
			}
			g = s
		}
		g.usage[leaf.i] = d.val // g is the leaf's cloned group
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
	// The new index's readers locate its positions in this tree by the
	// leaf-count prefixes the clones share, so a tree that lost or gained a
	// leaf behind the engine's back is refused here rather than published.
	if leaves := int(newRoot.leaves); leaves != old.Len() {
		return nil, nil, st, fmt.Errorf("fairshare: incremental fold gives %d leaves, the index holds %d entries",
			leaves, old.Len())
	}

	// Commit: adopt the new state.
	newTree := &Tree{root: newRoot, Config: cfg}
	newIndex := old.withRoot(newRoot)
	r.tree, r.index = newTree, newIndex
	st.FoldDuration = time.Since(start)
	return newTree, newIndex, st, nil
}

// sameBits reports bitwise float equality (distinguishing ±0, treating any
// NaN payload as equal to itself) — the equality that matters for snapshot
// bit-identity.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
