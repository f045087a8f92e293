// Package policy implements the hierarchical, tree-based usage policies of
// Aequus: target usage shares organized top-down into groups, subgroups and
// users. The share of one entity can be recursively subdivided, and globally
// managed sub-policies can be dynamically mounted into a locally administered
// root node — letting a site assign part of its resources to a grid without
// managing the grid's internal subdivision.
//
// Add builds a tree in place. A tree handed to a PDS (pds.New,
// SetPolicy, core.SiteConfig.Policy) must never be mutated again: the PDS,
// the FCS's snapshots and GET /policy share it without a copy, and the FCS
// takes an unchanged pointer for an unchanged policy. Mount and
// RefreshMount are copy-on-write: the new tree they return copies the path
// from the root to the edited node and shares every other subtree.
package policy

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// Separator separates path components, e.g. "/grid/project-a/u65".
const Separator = "/"

// Node is one entry of a policy tree. Shares are relative weights among
// siblings; Normalize rescales every sibling group to sum to one. A node is
// 48 B, a Go size class: the origin of a mount point lives on its Tree.
type Node struct {
	// Name is the node's identifier, unique among its siblings.
	Name string `json:"name"`
	// Share is the node's target usage share relative to its siblings.
	Share float64 `json:"share"`
	// Children are the sub-allocations of this node's share.
	Children []*Node `json:"children,omitempty"`
}

// Tree is a complete usage policy rooted at a virtual root node whose share
// is the whole resource.
type Tree struct {
	Root *Node `json:"root"`
	// origins maps each mount point's canonical path ("/grid") to the
	// origin it was mounted from; nil when nothing is mounted. Paths, not
	// node pointers, key it, so the copies that edit, Clone and Normalize
	// make need no re-keying. No map is written once its tree is built.
	origins map[string]string
}

// NewTree returns a policy tree with an empty root.
func NewTree() *Tree {
	return &Tree{Root: &Node{Name: "", Share: 1}}
}

// Errors returned by tree operations.
var (
	ErrNotFound   = errors.New("policy: path not found")
	ErrDuplicate  = errors.New("policy: duplicate sibling name")
	ErrBadShare   = errors.New("policy: share must be positive and finite")
	ErrBadPath    = errors.New("policy: bad path")
	ErrNotMounted = errors.New("policy: node is not a mount point")
)

// SplitPath splits "/a/b/c" into ["a","b","c"]; the root is the empty path.
func SplitPath(path string) []string {
	path = strings.Trim(path, Separator)
	if path == "" {
		return nil
	}
	return strings.Split(path, Separator)
}

// JoinPath joins components into a canonical "/a/b/c" path.
func JoinPath(parts []string) string {
	return Separator + strings.Join(parts, Separator)
}

// Origin returns the origin the node at path was mounted from, or "" for a
// locally administered node.
func (t *Tree) Origin(path string) string {
	if len(t.origins) == 0 {
		return ""
	}
	return t.origins[JoinPath(SplitPath(path))]
}

// below reports whether the canonical path key lies strictly below the
// canonical path p, and key's path relative to p ("/x" for p+"/x").
func below(p, key string) (string, bool) {
	if p == Separator {
		return key, key != Separator
	}
	if len(key) > len(p) && key[len(p)] == '/' && key[:len(p)] == p {
		return key[len(p):], true
	}
	return "", false
}

// find walks to the node at path; parent is the node above it (nil for root).
func (t *Tree) find(parts []string) (node, parent *Node) {
	node = t.Root
	for _, p := range parts {
		parent = node
		var next *Node
		for _, c := range node.Children {
			if c.Name == p {
				next = c
				break
			}
		}
		if next == nil {
			return nil, nil
		}
		node = next
	}
	return node, parent
}

// Lookup returns the node at path ("" or "/" for the root).
func (t *Tree) Lookup(path string) (*Node, error) {
	n, _ := t.find(SplitPath(path))
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return n, nil
}

// Subtree returns the node at path as a tree of its own, the form a PDS
// serves to the PDSs that mount it. It shares the node; its table holds the
// node's own origin (at "/") and those of the mounts below it.
func (t *Tree) Subtree(path string) (*Tree, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	p := JoinPath(SplitPath(path))
	sub := &Tree{Root: n}
	for k, o := range t.origins {
		rel, ok := below(p, k)
		if k == p {
			rel, ok = Separator, true
		}
		if !ok {
			continue
		}
		if sub.origins == nil {
			sub.origins = map[string]string{}
		}
		sub.origins[rel] = o
	}
	return sub, nil
}

// Add inserts a node with the given share under parentPath. It returns the
// new node's full path.
func (t *Tree) Add(parentPath, name string, share float64) (string, error) {
	if name == "" || strings.Contains(name, Separator) {
		return "", fmt.Errorf("%w: invalid name %q", ErrBadPath, name)
	}
	if !(share > 0) || math.IsInf(share, 1) {
		return "", fmt.Errorf("%w: %g", ErrBadShare, share)
	}
	parent, err := t.Lookup(parentPath)
	if err != nil {
		return "", err
	}
	for _, c := range parent.Children {
		if c.Name == name {
			return "", fmt.Errorf("%w: %s under %s", ErrDuplicate, name, parentPath)
		}
	}
	parent.Children = append(parent.Children, &Node{Name: name, Share: share})
	return JoinPath(append(SplitPath(parentPath), name)), nil
}

// Mount returns a tree in which a copy of sub's root's children hangs
// under a new node name (the given local share, origin recorded) below
// parentPath, whose subtree it validates; t is unchanged. The mounts inside
// sub keep their origins. This is the PDS operation that lets "local
// administrators assign parts of the resources to one or more grids while
// retaining full control over the infrastructure".
func (t *Tree) Mount(parentPath, name string, share float64, sub *Tree, origin string) (*Tree, error) {
	if sub == nil || sub.Root == nil {
		return nil, fmt.Errorf("%w: nil subtree", ErrBadPath)
	}
	next, err := t.edit(parentPath, func(p *Node) error {
		p.Children = append(slices.Clip(p.Children), // a new array, not t's
			&Node{Name: name, Share: share, Children: cloneNodes(sub.Root.Children)})
		return validateNode(p, parentPath)
	})
	if err != nil {
		return nil, err
	}
	next.origins = t.graft(JoinPath(append(SplitPath(parentPath), name)), origin, sub)
	return next, nil
}

// RefreshMount returns a tree in which the mount point at path holds a copy
// of sub's root's children and the origins of the mounts among them
// (policy updates propagate on PDS refresh); t is unchanged. When those
// equal the mounted ones it returns t itself, so an idle refresh leaves the
// tree, and everything derived from it, as it was.
func (t *Tree) RefreshMount(path string, sub *Tree) (*Tree, error) {
	node, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	p := JoinPath(SplitPath(path))
	origin := t.origins[p]
	if origin == "" {
		return nil, fmt.Errorf("%w: %s", ErrNotMounted, path)
	}
	if sub == nil || sub.Root == nil {
		return nil, fmt.Errorf("%w: nil subtree", ErrBadPath)
	}
	if equalNodes(node.Children, sub.Root.Children) && t.sameOriginsBelow(p, sub) {
		return t, nil
	}
	next, err := t.edit(path, func(n *Node) error {
		n.Children = cloneNodes(sub.Root.Children)
		return validateNode(n, path)
	})
	if err != nil {
		return nil, err
	}
	next.origins = t.graft(p, origin, sub)
	return next, nil
}

// graft returns t's origin table with the canonical path p mounted from
// origin and every entry below p replaced by the entries below sub's root,
// re-keyed under p.
func (t *Tree) graft(p, origin string, sub *Tree) map[string]string {
	out := make(map[string]string, len(t.origins)+len(sub.origins)+1)
	for k, o := range t.origins {
		if _, ok := below(p, k); !ok {
			out[k] = o
		}
	}
	for k, o := range sub.origins {
		if k == Separator {
			continue // sub's own root is the mount point, mounted from origin
		}
		if p != Separator {
			k = p + k
		}
		out[k] = o
	}
	if origin != "" {
		out[p] = origin
	}
	return out
}

// sameOriginsBelow reports whether the mounts strictly below the canonical
// path p of t are those below sub's root, from the same origins. It holds
// for sibling lists that equalNodes finds equal exactly when every node in
// them has the same origin in both tables.
func (t *Tree) sameOriginsBelow(p string, sub *Tree) bool {
	n := 0
	for k, o := range t.origins {
		if rel, ok := below(p, k); ok {
			if sub.origins[rel] != o {
				return false
			}
			n++
		}
	}
	if _, ok := sub.origins[Separator]; ok {
		n++
	}
	return n == len(sub.origins)
}

// edit returns a tree in which fn has changed a copy of the node at path.
// Only the nodes from the root down to it are copied; every other subtree
// is shared with t, so fn must not write into the copy's Children array.
func (t *Tree) edit(path string, fn func(*Node) error) (*Tree, error) {
	root := *t.Root
	n := &root
	for _, p := range SplitPath(path) {
		i := slices.IndexFunc(n.Children, func(c *Node) bool { return c.Name == p })
		if i < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		c := *n.Children[i]
		n.Children = slices.Clone(n.Children)
		n.Children[i] = &c
		n = &c
	}
	if err := fn(n); err != nil {
		return nil, err
	}
	return &Tree{Root: &root}, nil
}

// equalNodes reports whether two sibling lists hold the same names and
// shares, recursively; a holds no nil node, b may (it is fetched). Their
// origins are their trees' tables' to compare (sameOriginsBelow).
func equalNodes(a, b []*Node) bool {
	return slices.EqualFunc(a, b, func(x, y *Node) bool {
		return y != nil && x.Name == y.Name && x.Share == y.Share && equalNodes(x.Children, y.Children)
	})
}

// Validate checks, everywhere in the tree, that names are valid and unique
// among siblings, that shares are positive and finite, and that every
// sibling group's shares sum to a finite value, so Normalize yields finite
// shares in [0, 1].
func (t *Tree) Validate() error {
	if t.Root == nil {
		return errors.New("policy: nil root")
	}
	return validateNode(t.Root, "")
}

func validateNode(n *Node, path string) error {
	seen := map[string]bool{}
	var sum float64
	for _, c := range n.Children {
		if c == nil {
			return fmt.Errorf("%w: nil child under %s", ErrBadPath, path)
		}
		if c.Name == "" || strings.Contains(c.Name, Separator) {
			return fmt.Errorf("%w: %q under %s", ErrBadPath, c.Name, path)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: %s under %s", ErrDuplicate, c.Name, path)
		}
		seen[c.Name] = true
		if !(c.Share > 0) || math.IsInf(c.Share, 1) {
			return fmt.Errorf("%w: %s%s%s has %g", ErrBadShare, path, Separator, c.Name, c.Share)
		}
		sum += c.Share
		if err := validateNode(c, path+Separator+c.Name); err != nil {
			return err
		}
	}
	if math.IsInf(sum, 0) {
		return fmt.Errorf("%w: the shares under %s sum past the float range", ErrBadShare, path)
	}
	return nil
}

// Normalize rescales every sibling group so its shares sum to one, returning
// a new tree (the input is unchanged).
func (t *Tree) Normalize() *Tree {
	out := t.Clone()
	normalizeNode(out.Root)
	return out
}

func normalizeNode(n *Node) {
	var sum float64
	for _, c := range n.Children {
		sum += c.Share
	}
	if sum > 0 {
		for _, c := range n.Children {
			c.Share /= sum
		}
	}
	for _, c := range n.Children {
		normalizeNode(c)
	}
}

// Clone deep-copies the tree, origins included.
func (t *Tree) Clone() *Tree {
	return &Tree{Root: cloneNode(t.Root), origins: maps.Clone(t.origins)}
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{Name: n.Name, Share: n.Share}
	out.Children = cloneNodes(n.Children)
	return out
}

func cloneNodes(ns []*Node) []*Node {
	if ns == nil {
		return nil
	}
	out := make([]*Node, len(ns))
	for i, c := range ns {
		out[i] = cloneNode(c)
	}
	return out
}

// Leaf is a user entry in the policy: its path and the chain of normalized
// shares from the first level below the root down to the leaf.
type Leaf struct {
	// Path is the full path, e.g. "/grid/u65".
	Path string
	// User is the leaf name.
	User string
	// Shares holds the normalized share at each level along the path.
	Shares []float64
}

// Leaves returns all leaf entries of the normalized tree in depth-first
// order.
func (t *Tree) Leaves() []Leaf {
	norm := t.Normalize()
	var out []Leaf
	var walk func(n *Node, parts []string, shares []float64)
	walk = func(n *Node, parts []string, shares []float64) {
		if len(n.Children) == 0 {
			if len(parts) == 0 {
				return // empty tree: the root is not a user
			}
			out = append(out, Leaf{
				Path:   JoinPath(parts),
				User:   n.Name,
				Shares: append([]float64(nil), shares...),
			})
			return
		}
		for _, c := range n.Children {
			walk(c, append(parts, c.Name), append(shares, c.Share))
		}
	}
	walk(norm.Root, nil, nil)
	return out
}
