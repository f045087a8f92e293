// Package fairshare implements the Aequus fairshare calculation: given a
// hierarchical usage policy and decayed per-user historical usage, it
// computes a fairshare tree whose per-node values express how far each
// entity is from its target share. Per-user fairshare vectors are extracted
// from the tree and projected to scheduler-combinable priorities.
//
// The algorithm follows the papers' description: at every level of the
// tree, each node is compared with its siblings using a configurable blend
// of two distance metrics —
//
//	absolute: targetShare − usageShare            (∈ [share−1, share])
//	relative: (targetShare − usageShare)/target    (clamped to [0, 1])
//	priority: k·relative + (1−k)·absolute
//
// with default weight k = 0.5, "indicating that the absolute and relative
// components have equal weight". For a user with target share 0.12 this
// bounds the priority at 0.5·(1 + 0.12) = 0.56, matching the bursty-usage
// analysis in Section IV.
package fairshare

import (
	"math"

	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/vector"
)

// Config parameterizes the fairshare calculation.
type Config struct {
	// DistanceWeight is k, the weight of the relative distance metric
	// (1−k weighs the absolute metric). Values outside [0,1] are clamped.
	DistanceWeight float64
	// Resolution is the fairshare value range; node values live in
	// [0, Resolution) with the balance point at Resolution/2. The paper's
	// example uses 10000 (values 0–9999).
	Resolution float64
}

// DefaultConfig mirrors the production configuration: k = 0.5, resolution
// 10000.
func DefaultConfig() Config {
	return Config{DistanceWeight: 0.5, Resolution: 10000}
}

func (c Config) normalized() Config {
	if c.Resolution <= 0 {
		c.Resolution = 10000
	}
	c.DistanceWeight = math.Max(0, math.Min(1, c.DistanceWeight))
	return c
}

// Balance returns the balance-point value (the centre of the value range).
func (c Config) Balance() float64 { return c.normalized().Resolution / 2 }

// Node is one entry of the computed fairshare tree.
type Node struct {
	// Name is the policy node name.
	Name string
	// Share is the normalized target share within the sibling group.
	Share float64
	// Usage is the historical usage of the subtree, in whatever common
	// scale Compute's usage map was in: decayed core-seconds, or — what the
	// FCS feeds it under a decay that factors through time — sums at a
	// reference instant, which differ from decayed core-seconds by one
	// factor shared by every node (fcs.RefreshInfo.UsageScale). Only ratios
	// within a sibling group enter the scores, so the scale cancels.
	Usage float64
	// UsageShare is the subtree's fraction of its sibling group's usage.
	UsageShare float64
	// Priority is k·rel + (1−k)·abs (see package comment).
	Priority float64
	// Value is Priority mapped into [0, Resolution) with balance at the
	// centre.
	Value float64
	// Children are the sub-entities.
	Children []*Node
	// leaves counts the leaves in this subtree (1 for a leaf). It is filled
	// at build time so index construction and the incremental Recalc engine
	// can partition entry ranges without re-walking the tree; nodes counts
	// every node of the subtree, itself included.
	leaves, nodes int32
	// gen tags nodes cloned by one Recalc.Apply pass (generation numbers are
	// process-unique), letting the engine distinguish this pass's mutable
	// clones from immutable shared nodes without a map. Zero on nodes built
	// by Compute.
	gen uint64
}

// Tree is a computed fairshare tree.
type Tree struct {
	Root   *Node
	Config Config
}

// Compute builds the fairshare tree for a policy and per-user usage (keyed by
// leaf user name; any common scale, see Node.Usage). This is the pre-calculation the FCS performs
// periodically so that "no real-time calculations need to take place when
// new jobs arrive". Large policies are built and scored in parallel across
// the root's sibling subtrees — each sibling group is independent once its
// parent's usage totals are fixed.
func Compute(p *policy.Tree, usage map[string]float64, cfg Config) *Tree {
	cfg = cfg.normalized()
	root := buildTree(p.Root, p.Root.Share, usage, len(usage))
	root.Share = 1
	root.UsageShare = 1
	root.Priority = 0
	root.Value = cfg.Balance()
	scoreGroup(root, cfg)
	par.For(int(root.nodes), len(root.Children), func(_, i int) {
		scoreDescendants(root.Children[i], cfg)
	})
	return &Tree{Root: root, Config: cfg}
}

// buildTree builds the scored-tree skeleton from the raw policy, normalizing
// sibling shares inline with exactly policy.Normalize's arithmetic (each
// child's share divided by the left-to-right sum of its group's raw shares,
// iff that sum is positive; share is the node's own, already normalized).
// Folding the normalization into the build avoids the full policy clone
// Normalize performs. work is what par.For is told the children cost: the
// population at the root, whose subtrees build in parallel on large trees,
// zero below it. The usage fold runs left to right once the children are
// built, so results are bitwise independent of scheduling.
func buildTree(pn *policy.Node, share float64, usage map[string]float64, work int) *Node {
	n := &Node{Name: pn.Name, Share: share, nodes: 1}
	if len(pn.Children) == 0 {
		n.Usage = usage[pn.Name]
		n.leaves = 1
		return n
	}
	var sum float64
	for _, pc := range pn.Children {
		sum += pc.Share
	}
	n.Children = make([]*Node, len(pn.Children))
	par.For(work, len(pn.Children), func(_, i int) {
		pc := pn.Children[i]
		cs := pc.Share
		if sum > 0 {
			cs = pc.Share / sum
		}
		n.Children[i] = buildTree(pc, cs, usage, 0)
	})
	for _, c := range n.Children {
		n.Usage += c.Usage
		n.leaves += c.leaves
		n.nodes += c.nodes
	}
	return n
}

// score is the fairshare formula, in one place: a node's fraction of its
// sibling group's usage, the blend k·rel + (1−k)·abs of its two distances
// from its target share (see the package comment), and that priority mapped
// linearly from [−1, 1] into [0, Resolution) with 0 on the balance point.
// Compute and Recalc.Apply both score through it, which is what makes their
// results the same bits. cfg must be normalized.
func score(cfg Config, share, usage, groupUsage float64) (usageShare, priority, value float64) {
	if groupUsage > 0 {
		usageShare = usage / groupUsage
	}
	abs := share - usageShare
	rel := 0.0
	if share > 0 {
		rel = math.Max(0, math.Min(1, abs/share))
	}
	k := cfg.DistanceWeight
	priority = k*rel + (1-k)*abs
	v := cfg.Resolution / 2 * (1 + priority)
	return usageShare, priority, math.Max(0, math.Min(cfg.Resolution-1e-9, v))
}

// scoreGroup scores n's immediate children (one sibling group), without
// recursing. The group's usage is n.Usage, which every builder folds left to
// right over the children.
func scoreGroup(n *Node, cfg Config) {
	for _, c := range n.Children {
		c.UsageShare, c.Priority, c.Value = score(cfg, c.Share, c.Usage, n.Usage)
	}
}

// scoreDescendants scores every sibling group in n's subtree, including n's
// own children.
func scoreDescendants(n *Node, cfg Config) {
	scoreGroup(n, cfg)
	for _, c := range n.Children {
		scoreDescendants(c, cfg)
	}
}

// Vector extracts the fairshare vector of a user: the node values along the
// path from the root down to the user's leaf.
func (t *Tree) Vector(user string) (vector.Vector, bool) {
	v, _, ok := t.Lookup(user)
	return v, ok
}

// Depth returns the maximum leaf depth below the root.
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		best := 0
		for _, c := range n.Children {
			if d := walk(c) + 1; d > best {
				best = d
			}
		}
		return best
	}
	return walk(t.Root)
}

// Entries returns one projection entry per leaf user: vector plus the
// per-level policy and usage shares. Every entry owns its slices — nothing
// aliases the walk's scratch stacks or any other entry, so callers may
// retain or mutate entries freely.
func (t *Tree) Entries() []vector.Entry {
	var out []vector.Entry
	walkLeaves(t.Root, func(n *Node, w *leafWalk) {
		out = append(out, vector.Entry{
			User:       n.Name,
			Vec:        w.vec.Clone(),
			PathShares: append([]float64(nil), w.shares...),
			PathUsage:  append([]float64(nil), w.usages...),
		})
	})
	return out
}

// leafWalk is the path state of a depth-first walk over a tree's leaves: the
// values, target shares and usage shares from the first level below the root
// down to the current node, and the child index taken at each of those
// levels. The slices are scratch stacks reused across leaves — a visitor must
// copy anything it retains — and one explicit push/pop stack per quantity is
// what keeps the walk safe by construction (a per-call `append(vec, …)`
// shares backing arrays across sibling iterations).
type leafWalk struct {
	vec            vector.Vector
	shares, usages []float64
	path           []int32
}

// descend steps into parent's i-th child and calls fn on every leaf below it
// (on the child itself when it is one), in DFS order.
func (w *leafWalk) descend(parent *Node, i int, fn func(leaf *Node, w *leafWalk)) {
	c := parent.Children[i]
	w.vec = append(w.vec, c.Value)
	w.shares = append(w.shares, c.Share)
	w.usages = append(w.usages, c.UsageShare)
	w.path = append(w.path, int32(i))
	if len(c.Children) == 0 {
		fn(c, w)
	}
	for j := range c.Children {
		w.descend(c, j, fn)
	}
	d := len(w.vec) - 1
	w.vec, w.shares, w.usages, w.path = w.vec[:d], w.shares[:d], w.usages[:d], w.path[:d]
}

// walkLeaves visits every leaf below the root in DFS order (a childless root
// has none). The index fills each top-level subtree with its own leafWalk.
func walkLeaves(root *Node, fn func(leaf *Node, w *leafWalk)) {
	var w leafWalk
	for i := range root.Children {
		w.descend(root, i, fn)
	}
}

// UsageByLeaf returns the absolute decayed usage of every leaf, keyed by
// leaf name — the usage map a from-scratch Compute needs to reproduce this
// tree. Duplicate leaf names are harmless: Compute feeds every same-named
// leaf the same usage value, so the map is well-defined.
func (t *Tree) UsageByLeaf() map[string]float64 {
	out := make(map[string]float64, leafCount(t.Root))
	walkLeaves(t.Root, func(n *Node, _ *leafWalk) {
		out[n.Name] = n.Usage
	})
	return out
}

// Priorities projects every user's fairshare vector to a scalar in [0,1]
// with the given projection algorithm.
func (t *Tree) Priorities(proj vector.Projection) map[string]float64 {
	return proj.Project(t.Entries(), t.Config.Resolution)
}

// LeafPriority returns the raw (unprojected) leaf priority of a user — the
// quantity plotted in the paper's per-user priority figures — and whether
// the user exists.
func (t *Tree) LeafPriority(user string) (float64, bool) {
	_, prio, ok := t.Lookup(user)
	return prio, ok
}

// Lookup returns the fairshare vector and raw leaf priority of the first
// leaf, in DFS order, named user, from one tree walk that stops there. (The
// FCS serves from the Index; this is the reference the index is pinned to.)
func (t *Tree) Lookup(user string) (vec vector.Vector, prio float64, ok bool) {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if len(n.Children) == 0 {
			prio = n.Priority
			return n.Name == user && len(vec) > 0 // a childless root is no user
		}
		for _, c := range n.Children {
			vec = append(vec, c.Value)
			if walk(c) {
				return true
			}
			vec = vec[:len(vec)-1]
		}
		return false
	}
	if !walk(t.Root) {
		return nil, 0, false
	}
	return vec, prio, true
}

// Find returns the node at the given policy path.
func (t *Tree) Find(path string) (*Node, bool) {
	parts := policy.SplitPath(path)
	n := t.Root
	for _, p := range parts {
		var next *Node
		for _, c := range n.Children {
			if c.Name == p {
				next = c
				break
			}
		}
		if next == nil {
			return nil, false
		}
		n = next
	}
	return n, true
}

// MaxPriority returns the theoretical maximum leaf priority for a user with
// the given target share under config cfg: k·1 + (1−k)·share. For the
// bursty test's U3 (share 0.12, k 0.5) this is 0.56.
func MaxPriority(cfg Config, share float64) float64 {
	cfg = cfg.normalized()
	k := cfg.DistanceWeight
	return k + (1-k)*share
}
