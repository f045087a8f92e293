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
		c.Resolution = DefaultConfig().Resolution
	}
	c.DistanceWeight = math.Max(0, math.Min(1, c.DistanceWeight))
	return c
}

// Balance returns the balance-point value (the centre of the value range).
func (c Config) Balance() float64 { return c.normalized().Resolution / 2 }

// group is one group of the computed fairshare tree: a policy node with
// children. The tree holds groups only. A leaf is one entry of its group's
// usage column, and no node stores a score: score computes a member's scores
// where they are read, from the column here and the shares in the policy.
type group struct {
	// pol is the group's policy node, shared with the policy tree and never
	// written: it gives every member's name, raw share and position.
	pol *policy.Node
	// usage[i] is the subtree usage of pol.Children[i] (for a leaf, the
	// leaf's own usage), in whatever common scale Compute's usage map was
	// in: decayed core-seconds, or — what the FCS feeds it under a decay
	// that factors through time — sums at a reference instant, which differ
	// from decayed core-seconds by one factor shared by every entry
	// (fcs.RefreshInfo.UsageScale). Only ratios within a sibling group enter
	// the scores, so the scale cancels. Its length is the member count.
	usage []float64
	// sub[i] is the group of pol.Children[i], nil where that child is a
	// leaf; sub itself is nil when every child is one.
	sub []*group
	// total is usage folded left to right: the group's own subtree usage,
	// its members' usage-share denominator.
	total float64
	// shares[i] is member i's normalized target share: its raw share
	// divided by the members' raw shares summed left to right, iff that sum
	// is positive — policy.Normalize's arithmetic, without the policy clone.
	// Every reader of a target share (the tree walks, the index's entries,
	// the drift pass) reads it here, so all see the same bits, and a cold
	// lookup reads a leaf's share in one load rather than through its policy
	// node. Compute writes it once; Recalc's clones share it.
	shares []float64
	// leaves counts the leaves below the group and groups the groups of its
	// subtree, itself included, so index construction and the incremental
	// Recalc engine can partition entry ranges without re-walking the tree.
	leaves, groups int32
	// prefix[i] counts the leaves below the members before member i, with
	// len(usage)+1 entries (the last is leaves): how the index finds which
	// member holds a leaf position (see descend). Nil when every member is a
	// leaf, where the position is the member index. Compute writes it once;
	// Recalc's clones share it, since an Apply changes no leaf count.
	prefix []int32
	// gen tags groups cloned by one Recalc.Apply pass (generation numbers
	// are process-unique), letting the engine tell this pass's mutable
	// clones from immutable shared groups without a map. Zero on groups
	// built by Compute.
	gen uint64
}

// Member is one child of a group as a Tree walk reads it: the policy's name
// and normalized share, the tree's usage, and the scores score computes from
// them and the group's usage.
type Member struct {
	// Name is the policy node name.
	Name string
	// Leaf reports whether the member is a user rather than a group.
	Leaf bool
	// Share is the normalized target share within the sibling group.
	Share float64
	// Usage is the historical usage of the member's subtree, in Compute's
	// usage scale (see group.usage).
	Usage float64
	// UsageShare is the subtree's fraction of its sibling group's usage.
	UsageShare float64
	// Priority is k·rel + (1−k)·abs (see package comment).
	Priority float64
	// Value is Priority mapped into [0, Resolution) with balance at the
	// centre.
	Value float64
}

// Tree is a computed fairshare tree.
type Tree struct {
	root   *group
	Config Config
}

// Compute builds the fairshare tree for a policy and per-user usage (keyed by
// leaf user name; any common scale, see group.usage). This is the
// pre-calculation the FCS performs periodically so that "no real-time
// calculations need to take place when new jobs arrive". It allocates per
// group, not per user, and the root's sibling subtrees build in parallel on
// large policies. The usage fold runs left to right once a group's members
// are built, so results are bitwise independent of scheduling.
func Compute(p *policy.Tree, usage map[string]float64, cfg Config) *Tree {
	root := newGroup(p.Root)
	par.For(len(usage), len(root.usage), func(_, i int) {
		root.build(i, usage)
	})
	root.fold()
	root.prefixLeaves()
	return &Tree{root: root, Config: cfg.normalized()}
}

// newGroup returns the unbuilt group of a policy node: its columns sized and
// its members' shares normalized.
func newGroup(pn *policy.Node) *group {
	g := &group{pol: pn, usage: make([]float64, len(pn.Children)), shares: make([]float64, len(pn.Children))}
	sum := 0.0
	for _, pc := range pn.Children {
		sum += pc.Share
		if len(pc.Children) > 0 && g.sub == nil {
			g.sub = make([]*group, len(pn.Children))
		}
	}
	for i, pc := range pn.Children {
		g.shares[i] = pc.Share
		if sum > 0 {
			g.shares[i] = pc.Share / sum
		}
	}
	return g
}

// build fills member i: a leaf's usage from the usage map, or a group built
// and folded in turn.
func (g *group) build(i int, usage map[string]float64) {
	pc := g.pol.Children[i]
	if len(pc.Children) == 0 {
		g.usage[i] = usage[pc.Name]
		return
	}
	s := newGroup(pc)
	for j := range s.usage {
		s.build(j, usage)
	}
	s.fold()
	s.prefixLeaves()
	g.sub[i] = s
}

// fold copies every sub-group's total into its column entry and re-derives
// the group's total and counts, folding the members left to right. The full
// build and Recalc.Apply both sum through it, which is what makes their
// usage the same bits (adding a delta to an old sum would round differently).
func (g *group) fold() {
	g.total, g.leaves, g.groups = 0, 0, 1
	for i := range g.usage {
		if s := g.subAt(i); s != nil {
			g.usage[i] = s.total
			g.leaves += s.leaves
			g.groups += s.groups
		} else {
			g.leaves++
		}
		g.total += g.usage[i]
	}
}

// prefixLeaves writes the leaf-count prefix of a folded group that has
// sub-groups.
func (g *group) prefixLeaves() {
	if g.sub == nil {
		return
	}
	g.prefix = make([]int32, len(g.usage)+1)
	for i := range g.usage {
		n := int32(1)
		if s := g.sub[i]; s != nil {
			n = s.leaves
		}
		g.prefix[i+1] = g.prefix[i] + n
	}
}

// subAt returns the group of member i, nil when the member is a leaf.
func (g *group) subAt(i int) *group {
	if g.sub == nil {
		return nil
	}
	return g.sub[i]
}

// member returns member i with its scores, for the tree walks. cfg must be
// normalized.
func (g *group) member(cfg Config, i int) Member {
	m := Member{Name: g.pol.Children[i].Name, Leaf: g.subAt(i) == nil, Share: g.shares[i], Usage: g.usage[i]}
	m.UsageShare, m.Priority, m.Value = score(cfg, m.Share, m.Usage, g.total)
	return m
}

// score is the fairshare formula, in one place: a node's fraction of its
// sibling group's usage, the blend k·rel + (1−k)·abs of its two distances
// from its target share (see the package comment), and that priority mapped
// linearly from [−1, 1] into [0, Resolution) with 0 on the balance point.
// Every tree walk (by way of group.member) and the index's entry composition
// score through it, which is what makes their results the same bits. cfg
// must be normalized.
func score(cfg Config, share, usage, groupUsage float64) (us, priority, value float64) {
	us = usageShare(usage, groupUsage)
	abs := share - us
	rel := 0.0
	if share > 0 {
		rel = clamp(abs/share, 1)
	}
	k := cfg.DistanceWeight
	priority = k*rel + (1-k)*abs
	v := cfg.Resolution / 2 * (1 + priority)
	return us, priority, clamp(v, cfg.Resolution-1e-9)
}

// clamp is math.Max(0, math.Min(hi, x)) for a positive hi, bit for bit (−0
// becomes +0, a NaN becomes math.NaN()), without those two calls: they are
// not inlined, and cost more than the rest of a score.
func clamp(x, hi float64) float64 {
	switch {
	case x > hi:
		return hi
	case x > 0:
		return x
	case x == x:
		return 0
	}
	return math.NaN()
}

// usageShare is a node's fraction of its sibling group's usage, score's first
// output: the drift pass folds it alone.
func usageShare(usage, groupUsage float64) float64 {
	if groupUsage > 0 {
		return usage / groupUsage
	}
	return 0
}

// Walk calls fn on every group of the tree, parents before their children
// and siblings in policy order: path is the group's "/"-joined names below
// the root ("" for the root), usage its subtree usage, and members its
// children, scored. members is scratch that the next call overwrites.
func (t *Tree) Walk(fn func(path string, usage float64, members []Member)) {
	var members []Member
	var walk func(g *group, path string)
	walk = func(g *group, path string) {
		members = members[:0]
		for i := range g.usage {
			members = append(members, g.member(t.Config, i))
		}
		fn(path, g.total, members)
		for i, s := range g.sub {
			if s != nil {
				walk(s, path+"/"+g.pol.Children[i].Name)
			}
		}
	}
	walk(t.root, "")
}

// Vector extracts the fairshare vector of a user: the node values along the
// path from the root down to the user's leaf.
func (t *Tree) Vector(user string) (vector.Vector, bool) {
	v, _, ok := t.Lookup(user)
	return v, ok
}

// Depth returns the maximum leaf depth below the root.
func (t *Tree) Depth() int {
	var depth func(g *group) int
	depth = func(g *group) int {
		best := 0
		for i := range g.usage {
			d := 1
			if s := g.subAt(i); s != nil {
				d += depth(s)
			}
			best = max(best, d)
		}
		return best
	}
	return depth(t.root)
}

// Entries returns one projection entry per leaf user: vector plus the
// per-level policy and usage shares. Every entry owns its slices — nothing
// aliases the walk's scratch stacks or any other entry, so callers may
// retain or mutate entries freely.
func (t *Tree) Entries() []vector.Entry {
	var out []vector.Entry
	t.walkLeaves(func(m Member, w *leafWalk) bool {
		out = append(out, vector.Entry{
			User:       m.Name,
			Vec:        w.vec.Clone(),
			PathShares: append([]float64(nil), w.shares...),
			PathUsage:  append([]float64(nil), w.usages...),
		})
		return false
	})
	return out
}

// leafWalk is the path state of a depth-first walk over a tree's leaves: the
// values, target shares and usage shares from the first level below the root
// down to the current member. The slices are scratch stacks reused across
// leaves — a visitor must copy anything it retains — and one explicit
// push/pop stack per quantity is what keeps the walk safe by construction (a
// per-call `append(vec, …)` shares backing arrays across sibling iterations).
type leafWalk struct {
	cfg            Config
	vec            vector.Vector
	shares, usages []float64
}

// descend steps into g's i-th member and calls fn on every leaf below it (on
// the member itself when it is a leaf), in DFS order, until fn returns true.
// It reports whether fn did; the stacks then still hold the path to that
// leaf.
func (w *leafWalk) descend(g *group, i int, fn func(leaf Member, w *leafWalk) bool) bool {
	m := g.member(w.cfg, i)
	w.vec = append(w.vec, m.Value)
	w.shares = append(w.shares, m.Share)
	w.usages = append(w.usages, m.UsageShare)
	if s := g.subAt(i); s == nil {
		if fn(m, w) {
			return true
		}
	} else {
		for j := range s.usage {
			if w.descend(s, j, fn) {
				return true
			}
		}
	}
	d := len(w.vec) - 1
	w.vec, w.shares, w.usages = w.vec[:d], w.shares[:d], w.usages[:d]
	return false
}

// walkLeaves visits every leaf below the root in DFS order (a childless root
// has none) until fn returns true.
func (t *Tree) walkLeaves(fn func(leaf Member, w *leafWalk) bool) {
	w := leafWalk{cfg: t.Config}
	for i := range t.root.usage {
		if w.descend(t.root, i, fn) {
			return
		}
	}
}

// UsageByLeaf returns the absolute decayed usage of every leaf, keyed by
// leaf name — the usage map a from-scratch Compute needs to reproduce this
// tree. Duplicate leaf names are harmless: Compute feeds every same-named
// leaf the same usage value, so the map is well-defined.
func (t *Tree) UsageByLeaf() map[string]float64 {
	out := make(map[string]float64, t.root.leaves)
	t.walkLeaves(func(m Member, _ *leafWalk) bool {
		out[m.Name] = m.Usage
		return false
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
	t.walkLeaves(func(m Member, w *leafWalk) bool {
		if m.Name != user {
			return false
		}
		vec, prio, ok = w.vec, m.Priority, true
		return true
	})
	return vec, prio, ok
}

// MaxPriority returns the theoretical maximum leaf priority for a user with
// the given target share under config cfg: k·1 + (1−k)·share. For the
// bursty test's U3 (share 0.12, k 0.5) this is 0.56.
func MaxPriority(cfg Config, share float64) float64 {
	cfg = cfg.normalized()
	k := cfg.DistanceWeight
	return k + (1-k)*share
}
