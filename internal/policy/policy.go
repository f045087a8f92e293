// Package policy implements the hierarchical, tree-based usage policies of
// Aequus: target usage shares organized top-down into groups, subgroups and
// users. The share of one entity can be recursively subdivided, and globally
// managed sub-policies can be dynamically mounted into a locally administered
// root node — letting a site assign part of its resources to a grid without
// managing the grid's internal subdivision.
//
// Add and Remove build a tree in place. A tree handed to a PDS (pds.New,
// SetPolicy, core.SiteConfig.Policy) must never be mutated again: the PDS,
// the FCS's snapshots and GET /policy share it without a copy, and the FCS
// takes an unchanged pointer for an unchanged policy. Mount and
// RefreshMount are copy-on-write: the new tree they return copies the path
// from the root to the edited node and shares every other subtree.
package policy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Separator separates path components, e.g. "/grid/project-a/u65".
const Separator = "/"

// Node is one entry of a policy tree. Shares are relative weights among
// siblings; Normalize rescales every sibling group to sum to one.
type Node struct {
	// Name is the node's identifier, unique among its siblings.
	Name string `json:"name"`
	// Share is the node's target usage share relative to its siblings.
	Share float64 `json:"share"`
	// Children are the sub-allocations of this node's share.
	Children []*Node `json:"children,omitempty"`
	// MountedFrom records the origin of a dynamically mounted subtree
	// (empty for locally administered nodes).
	MountedFrom string `json:"mountedFrom,omitempty"`
}

// Tree is a complete usage policy rooted at a virtual root node whose share
// is the whole resource.
type Tree struct {
	Root *Node `json:"root"`
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

// Mount returns a tree in which a copy of sub's children hangs under a new
// node name (the given local share, origin recorded) below parentPath,
// whose subtree it validates; t is unchanged. This is the PDS operation
// that lets "local administrators assign parts of the resources to one or
// more grids while retaining full control over the infrastructure".
func (t *Tree) Mount(parentPath, name string, share float64, sub *Node, origin string) (*Tree, error) {
	if sub == nil {
		return nil, fmt.Errorf("%w: nil subtree", ErrBadPath)
	}
	return t.edit(parentPath, func(p *Node) error {
		p.Children = append(slices.Clip(p.Children), // a new array, not t's
			&Node{Name: name, Share: share, Children: cloneNodes(sub.Children), MountedFrom: origin})
		return validateNode(p, parentPath)
	})
}

// RefreshMount returns a tree in which the mount point at path holds a copy
// of sub's children (policy updates propagate on PDS refresh); t is
// unchanged. When sub's children equal the mounted ones it returns t
// itself, so an idle refresh leaves the tree, and everything derived from
// it, as it was.
func (t *Tree) RefreshMount(path string, sub *Node) (*Tree, error) {
	node, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	if node.MountedFrom == "" {
		return nil, fmt.Errorf("%w: %s", ErrNotMounted, path)
	}
	if sub == nil {
		return nil, fmt.Errorf("%w: nil subtree", ErrBadPath)
	}
	if equalNodes(node.Children, sub.Children) {
		return t, nil
	}
	return t.edit(path, func(n *Node) error {
		n.Children = cloneNodes(sub.Children)
		return validateNode(n, path)
	})
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

// equalNodes reports whether two sibling lists hold the same names, shares
// and origins, recursively; a holds no nil node, b may (it is fetched).
func equalNodes(a, b []*Node) bool {
	return slices.EqualFunc(a, b, func(x, y *Node) bool {
		return y != nil && x.Name == y.Name && x.Share == y.Share && x.MountedFrom == y.MountedFrom &&
			equalNodes(x.Children, y.Children)
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

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{Root: cloneNode(t.Root)}
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{Name: n.Name, Share: n.Share, MountedFrom: n.MountedFrom}
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
