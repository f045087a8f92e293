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
	"runtime"
	"sync"
	"sync/atomic"

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
	// can partition entry ranges without re-walking the tree.
	leaves int32
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

// parallelComputeThreshold is the tree size (node count) above which Compute
// scores top-level sibling subtrees concurrently. Small trees stay serial:
// goroutine setup would dominate the arithmetic.
const parallelComputeThreshold = 4096

// Compute builds the fairshare tree for a policy and per-user usage (keyed by
// leaf user name; any common scale, see Node.Usage). This is the pre-calculation the FCS performs
// periodically so that "no real-time calculations need to take place when
// new jobs arrive". Large policies are scored in parallel across the root's
// sibling subtrees — each sibling group is independent once its parent's
// usage totals are fixed.
func Compute(p *policy.Tree, usage map[string]float64, cfg Config) *Tree {
	cfg = cfg.normalized()
	root, nodes := buildTree(p.Root, usage)
	root.Share = 1
	root.UsageShare = 1
	root.Priority = 0
	root.Value = cfg.Balance()
	scoreGroup(root, cfg)
	if nodes >= parallelComputeThreshold && len(root.Children) > 1 {
		var wg sync.WaitGroup
		for _, c := range root.Children {
			wg.Add(1)
			go func(c *Node) {
				defer wg.Done()
				scoreDescendants(c, cfg)
			}(c)
		}
		wg.Wait()
	} else {
		for _, c := range root.Children {
			scoreDescendants(c, cfg)
		}
	}
	return &Tree{Root: root, Config: cfg}
}

// buildTree builds the scored-tree skeleton from the raw policy, normalizing
// sibling shares inline with exactly policy.Normalize's arithmetic (each
// child's share divided by the left-to-right sum of its group's raw shares,
// iff that sum is positive). Folding the normalization into the build avoids
// the full policy clone Normalize performs. Large trees build their top-level
// subtrees in parallel; the root's usage fold stays serial and left-to-right
// so results are bitwise independent of scheduling.
func buildTree(pn *policy.Node, usage map[string]float64) (*Node, int) {
	if len(usage) < parallelComputeThreshold || len(pn.Children) < 2 {
		return buildNorm(pn, pn.Share, usage)
	}
	n := &Node{Name: pn.Name, Share: pn.Share}
	var sum float64
	for _, pc := range pn.Children {
		sum += pc.Share
	}
	n.Children = make([]*Node, len(pn.Children))
	counts := make([]int, len(pn.Children))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pn.Children) {
		workers = len(pn.Children)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pn.Children) {
					return
				}
				pc := pn.Children[i]
				cs := pc.Share
				if sum > 0 {
					cs = pc.Share / sum
				}
				n.Children[i], counts[i] = buildNorm(pc, cs, usage)
			}
		}()
	}
	wg.Wait()
	nodes := 1
	for i, c := range n.Children {
		n.Usage += c.Usage
		n.leaves += c.leaves
		nodes += counts[i]
	}
	return n, nodes
}

// buildNorm copies the policy structure with inline share normalization and
// accumulates subtree usage, returning the subtree's node count. share is the
// node's already-normalized share within its sibling group.
func buildNorm(pn *policy.Node, share float64, usage map[string]float64) (*Node, int) {
	n := &Node{Name: pn.Name, Share: share}
	if len(pn.Children) == 0 {
		n.Usage = usage[pn.Name]
		n.leaves = 1
		return n, 1
	}
	var sum float64
	for _, pc := range pn.Children {
		sum += pc.Share
	}
	nodes := 1
	n.Children = make([]*Node, 0, len(pn.Children))
	for _, pc := range pn.Children {
		cs := pc.Share
		if sum > 0 {
			cs = pc.Share / sum
		}
		c, cn := buildNorm(pc, cs, usage)
		n.Children = append(n.Children, c)
		n.Usage += c.Usage
		n.leaves += c.leaves
		nodes += cn
	}
	return n, nodes
}

// scoreGroup computes usage shares, priorities and values for n's immediate
// children (one sibling group), without recursing.
func scoreGroup(n *Node, cfg Config) {
	var groupUsage float64
	for _, c := range n.Children {
		groupUsage += c.Usage
	}
	k := cfg.DistanceWeight
	for _, c := range n.Children {
		if groupUsage > 0 {
			c.UsageShare = c.Usage / groupUsage
		} else {
			c.UsageShare = 0
		}
		abs := c.Share - c.UsageShare
		rel := 0.0
		if c.Share > 0 {
			rel = math.Max(0, math.Min(1, (c.Share-c.UsageShare)/c.Share))
		}
		c.Priority = k*rel + (1-k)*abs
		// Priority ∈ [−1, 1]; map linearly so 0 lands on the balance point.
		v := cfg.Balance() * (1 + c.Priority)
		c.Value = math.Max(0, math.Min(cfg.Resolution-1e-9, v))
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

// lookupPath returns the chain of nodes from the first level below the root
// down to the (first) leaf named user, or nil.
func (t *Tree) lookupPath(user string) []*Node {
	var found []*Node
	var walk func(n *Node, path []*Node) bool
	walk = func(n *Node, path []*Node) bool {
		if len(n.Children) == 0 {
			if n.Name == user && len(path) > 0 {
				found = append([]*Node(nil), path...)
				return true
			}
			return false
		}
		for _, c := range n.Children {
			if walk(c, append(path, c)) {
				return true
			}
		}
		return false
	}
	walk(t.Root, nil)
	return found
}

// Vector extracts the fairshare vector of a user: the node values along the
// path from the root down to the user's leaf.
func (t *Tree) Vector(user string) (vector.Vector, bool) {
	path := t.lookupPath(user)
	if path == nil {
		return nil, false
	}
	v := make(vector.Vector, len(path))
	for i, n := range path {
		v[i] = n.Value
	}
	return v, true
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
	walkLeaves(t.Root, func(n *Node, vec vector.Vector, shares, usages []float64) {
		out = append(out, vector.Entry{
			User:       n.Name,
			Vec:        vec.Clone(),
			PathShares: append([]float64(nil), shares...),
			PathUsage:  append([]float64(nil), usages...),
		})
	})
	return out
}

// walkLeaves visits every leaf below the root in DFS order, passing the path
// state (values, target shares, usage shares from the first level below the
// root down to the leaf). The slices handed to fn are scratch stacks reused
// across leaves: fn must copy anything it retains. Maintaining one explicit
// push/pop stack per quantity keeps the walk safe by construction — the old
// per-call `append(vec, …)` pattern shared backing arrays across sibling
// iterations and was only correct because each leaf cloned before the next
// sibling's append overwrote the slot.
func walkLeaves(root *Node, fn func(leaf *Node, vec vector.Vector, shares, usages []float64)) {
	var vec vector.Vector
	var shares, usages []float64
	var walk func(n *Node)
	walk = func(n *Node) {
		if len(n.Children) == 0 {
			if len(vec) > 0 {
				fn(n, vec, shares, usages)
			}
			return
		}
		for _, c := range n.Children {
			vec = append(vec, c.Value)
			shares = append(shares, c.Share)
			usages = append(usages, c.UsageShare)
			walk(c)
			vec = vec[:len(vec)-1]
			shares = shares[:len(shares)-1]
			usages = usages[:len(usages)-1]
		}
	}
	walk(root)
}

// UsageByLeaf returns the absolute decayed usage of every leaf, keyed by
// leaf name — the usage map a from-scratch Compute needs to reproduce this
// tree. Duplicate leaf names are harmless: Compute feeds every same-named
// leaf the same usage value, so the map is well-defined.
func (t *Tree) UsageByLeaf() map[string]float64 {
	out := make(map[string]float64, leafCount(t.Root))
	walkLeaves(t.Root, func(n *Node, _ vector.Vector, _, _ []float64) {
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
	path := t.lookupPath(user)
	if path == nil {
		return 0, false
	}
	return path[len(path)-1].Priority, true
}

// Lookup returns a user's fairshare vector and raw leaf priority from a
// single tree walk — callers needing both must not pay for two
// (Vector + LeafPriority each repeat the same depth-first search).
func (t *Tree) Lookup(user string) (vector.Vector, float64, bool) {
	path := t.lookupPath(user)
	if path == nil {
		return nil, 0, false
	}
	v := make(vector.Vector, len(path))
	for i, n := range path {
		v[i] = n.Value
	}
	return v, path[len(path)-1].Priority, true
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
