package policy

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The text policy format is one node per line:
//
//	/grid            60
//	/grid/u65        65.25
//	/local           40
//
// Shares are relative weights among siblings (normalized on use). Parent
// paths must appear before their children. '#' starts a comment.

// WriteText serializes the tree in the text format, depth-first.
func WriteText(w io.Writer, t *Tree) error {
	// A bufio.Writer keeps its first error and reports it from Flush.
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# path share")
	var walk func(n *Node, parts []string)
	walk = func(n *Node, parts []string) {
		for _, c := range n.Children {
			p := append(parts, c.Name)
			fmt.Fprintf(bw, "%s %g\n", JoinPath(p), c.Share)
			walk(c, p)
		}
	}
	walk(t.Root, nil)
	return bw.Flush()
}

// ReadText parses the text format into a validated tree.
func ReadText(r io.Reader) (*Tree, error) {
	t := NewTree()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("policy: line %d: want 'path share', got %q", lineNo, line)
		}
		share, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("policy: line %d: bad share %q", lineNo, f[1])
		}
		parts := SplitPath(f[0])
		if len(parts) == 0 {
			return nil, fmt.Errorf("policy: line %d: cannot set root share", lineNo)
		}
		parent := JoinPath(parts[:len(parts)-1])
		if _, err := t.Add(parent, parts[len(parts)-1], share); err != nil {
			return nil, fmt.Errorf("policy: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Add checks each line, not a sibling group's share sum.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MarshalJSON / UnmarshalJSON give trees a stable wire representation for
// the Policy Distribution Service.

// ToJSON serializes the tree as JSON.
func ToJSON(t *Tree) ([]byte, error) { return json.Marshal(t) }

// FromJSON parses a JSON tree and validates it.
func FromJSON(data []byte) (*Tree, error) {
	var t Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	if t.Root == nil {
		t.Root = &Node{Name: "", Share: 1}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// FlatShares returns user -> normalized total target share (the product of
// shares down the path), the quantity used by the percental projection.
// Users appearing in multiple leaves accumulate.
func FlatShares(t *Tree) map[string]float64 {
	out := map[string]float64{}
	for _, l := range t.Leaves() {
		total := 1.0
		for _, s := range l.Shares {
			total *= s
		}
		out[l.User] += total
	}
	return out
}

// FromShares builds a flat single-level tree: every user directly under the
// root with the given share — the common case for the testbed experiments
// where policy targets are per-user usage shares.
func FromShares(shares map[string]float64) (*Tree, error) {
	t := NewTree()
	users := make([]string, 0, len(shares))
	for u := range shares {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		if _, err := t.Add("", u, shares[u]); err != nil {
			return nil, err
		}
	}
	return t, nil
}
