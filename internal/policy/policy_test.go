package policy

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// paperTree builds the Figure 3-style hierarchy:
//
//	/HQ  /LQ  /grid
//	        /grid/projA/{u1,u2}  /grid/projB/u3
func paperTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree()
	must := func(_ string, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.Add("", "hq", 30))
	must(tr.Add("", "lq", 10))
	must(tr.Add("", "grid", 60))
	must(tr.Add("/grid", "projA", 3))
	must(tr.Add("/grid", "projB", 1))
	must(tr.Add("/grid/projA", "u1", 1))
	must(tr.Add("/grid/projA", "u2", 3))
	must(tr.Add("/grid/projB", "u3", 1))
	return tr
}

func TestAddAndLookup(t *testing.T) {
	tr := paperTree(t)
	n, err := tr.Lookup("/grid/projA/u2")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "u2" || n.Share != 3 {
		t.Errorf("node = %+v", n)
	}
	if _, err := tr.Lookup("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup err = %v", err)
	}
	root, err := tr.Lookup("/")
	if err != nil || root != tr.Root {
		t.Error("root lookup failed")
	}
}

func TestAddRejectsBadInput(t *testing.T) {
	tr := paperTree(t)
	if _, err := tr.Add("", "hq", 1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	if _, err := tr.Add("", "x", 0); !errors.Is(err, ErrBadShare) {
		t.Errorf("zero share err = %v", err)
	}
	if _, err := tr.Add("", "x", -1); !errors.Is(err, ErrBadShare) {
		t.Errorf("negative share err = %v", err)
	}
	if _, err := tr.Add("", "a/b", 1); !errors.Is(err, ErrBadPath) {
		t.Errorf("slash name err = %v", err)
	}
	if _, err := tr.Add("/missing", "x", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing parent err = %v", err)
	}
}

func TestNormalize(t *testing.T) {
	tr := paperTree(t)
	norm := tr.Normalize()
	top := norm.Root.Children
	if math.Abs(top[0].Share-0.3) > 1e-12 || math.Abs(top[2].Share-0.6) > 1e-12 {
		t.Errorf("top shares = %g, %g, %g", top[0].Share, top[1].Share, top[2].Share)
	}
	projA, _ := norm.Lookup("/grid/projA")
	if math.Abs(projA.Share-0.75) > 1e-12 {
		t.Errorf("projA share = %g, want 0.75", projA.Share)
	}
	// Original unchanged.
	if tr.Root.Children[0].Share != 30 {
		t.Error("Normalize mutated input")
	}
}

func TestLeavesAndShares(t *testing.T) {
	tr := paperTree(t)
	leaves := tr.Leaves()
	if len(leaves) != 5 {
		t.Fatalf("leaves = %d, want 5 (hq, lq, u1, u2, u3)", len(leaves))
	}
	byPath := map[string]Leaf{}
	for _, l := range leaves {
		byPath[l.Path] = l
	}
	u2 := byPath["/grid/projA/u2"]
	if u2.User != "u2" {
		t.Fatalf("u2 leaf = %+v", u2)
	}
	want := []float64{0.6, 0.75, 0.75}
	if len(u2.Shares) != 3 {
		t.Fatalf("u2 shares = %v", u2.Shares)
	}
	for i := range want {
		if math.Abs(u2.Shares[i]-want[i]) > 1e-12 {
			t.Errorf("u2 shares = %v, want %v", u2.Shares, want)
			break
		}
	}
	lq := byPath["/lq"]
	if len(lq.Shares) != 1 || math.Abs(lq.Shares[0]-0.1) > 1e-12 {
		t.Errorf("lq shares = %v", lq.Shares)
	}
}

func TestMountAndRefresh(t *testing.T) {
	local := NewTree()
	if _, err := local.Add("", "local", 40); err != nil {
		t.Fatal(err)
	}
	before := local.Clone()
	// A remotely managed grid policy.
	remote := NewTree()
	remote.Add("", "va", 1)
	remote.Add("", "vb", 3)

	mounted, err := local.Mount("", "grid", 60, remote, "pds://national")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, before) {
		t.Error("Mount changed the tree it was called on")
	}
	if a, _ := local.Lookup("/local"); a != must(mounted.Lookup("/local")) {
		t.Error("Mount copied a subtree off the path to the mount point")
	}
	n, err := mounted.Lookup("/grid/vb")
	if err != nil {
		t.Fatal(err)
	}
	if n.Share != 3 {
		t.Errorf("mounted share = %g", n.Share)
	}
	if o := mounted.Origin("/grid"); o != "pds://national" {
		t.Errorf("Origin(/grid) = %q", o)
	}

	// Mutating the remote tree must not affect the mounted copy.
	remote.Root.Children[0].Share = 99
	n, _ = mounted.Lookup("/grid/va")
	if n.Share != 1 {
		t.Error("mount did not deep-copy the subtree")
	}

	// Refreshing with the children already mounted keeps the tree itself.
	same := NewTree()
	same.Add("", "va", 1)
	same.Add("", "vb", 3)
	if got, err := mounted.RefreshMount("/grid", same); err != nil || got != mounted {
		t.Errorf("idle refresh = %p, %v; want the tree itself %p", got, err, mounted)
	}

	// Refresh propagates policy updates.
	remote2 := NewTree()
	remote2.Add("", "vc", 5)
	refreshed, err := mounted.RefreshMount("/grid", remote2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refreshed.Lookup("/grid/vc"); err != nil {
		t.Error("refresh did not replace children")
	}
	if _, err := refreshed.Lookup("/grid/va"); err == nil {
		t.Error("refresh kept stale children")
	}
	if _, err := mounted.Lookup("/grid/va"); err != nil {
		t.Error("refresh changed the tree it was called on")
	}

	// Refreshing a non-mount fails.
	if _, err := refreshed.RefreshMount("/local", remote2); !errors.Is(err, ErrNotMounted) {
		t.Errorf("refresh non-mount err = %v", err)
	}
	if _, err := local.Mount("", "grid2", 1, nil, "x"); !errors.Is(err, ErrBadPath) {
		t.Errorf("nil subtree err = %v", err)
	}
	if _, err := mounted.Mount("", "grid", 1, remote2, "x"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate mount err = %v", err)
	}
	bad := &Tree{Root: &Node{Children: []*Node{{Name: "x", Share: math.Inf(1)}}}}
	if _, err := local.Mount("", "grid", 1, bad, "x"); !errors.Is(err, ErrBadShare) {
		t.Errorf("mount of an invalid subtree err = %v", err)
	}
	if _, err := mounted.RefreshMount("/grid", bad); !errors.Is(err, ErrBadShare) {
		t.Errorf("refresh to an invalid subtree err = %v", err)
	}
	holey := &Tree{Root: &Node{Children: []*Node{{Name: "va", Share: 1}, nil}}}
	if _, err := mounted.RefreshMount("/grid", holey); !errors.Is(err, ErrBadPath) {
		t.Errorf("refresh to a subtree with a nil child err = %v", err)
	}
}

func must(n *Node, err error) *Node {
	if err != nil {
		panic(err)
	}
	return n
}

func TestValidate(t *testing.T) {
	tr := paperTree(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := paperTree(t)
	bad.Root.Children[0].Share = -1
	if err := bad.Validate(); !errors.Is(err, ErrBadShare) {
		t.Errorf("bad share err = %v", err)
	}
	dup := paperTree(t)
	dup.Root.Children = append(dup.Root.Children, &Node{Name: "hq", Share: 1})
	if err := dup.Validate(); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
}

// TestValidateRejectsSharesThatBreakNormalisation: a tree whose shares do
// not normalise to finite values in [0, 1] is refused by every decoder and
// by Validate itself. An infinite share used to normalise to NaN, and two
// siblings whose sum overflows to 0 each.
func TestValidateRejectsSharesThatBreakNormalisation(t *testing.T) {
	for _, in := range []string{"/a inf\n/b 1", "/a +Inf", "/a 1e308\n/b 1e308", "/a NaN"} {
		if tr, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrBadShare) {
			t.Errorf("ReadText(%q) = %v, %v; want %v", in, tr, err, ErrBadShare)
		}
	}
	for _, in := range []string{
		`{"root":{"children":[{"name":"a","share":1e308},{"name":"b","share":1e308}]}}`,
		`{"root":{"children":[{"name":"g","share":1,"children":[{"name":"a","share":1e308},{"name":"b","share":1e308}]}]}}`,
	} {
		if tr, err := FromJSON([]byte(in)); !errors.Is(err, ErrBadShare) {
			t.Errorf("FromJSON(%s) = %v, %v; want %v", in, tr, err, ErrBadShare)
		}
	}
	if _, err := FromJSON([]byte(`{"root":{"children":[null]}}`)); !errors.Is(err, ErrBadPath) {
		t.Errorf("FromJSON with a null child: err = %v, want %v", err, ErrBadPath)
	}
	inf := paperTree(t)
	inf.Root.Children[0].Share = math.Inf(1)
	if err := inf.Validate(); !errors.Is(err, ErrBadShare) {
		t.Errorf("infinite share err = %v", err)
	}
	if _, err := NewTree().Add("", "a", math.Inf(1)); !errors.Is(err, ErrBadShare) {
		t.Errorf("Add of an infinite share err = %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := paperTree(t)
	cp := tr.Clone()
	cp.Root.Children[0].Share = 999
	if tr.Root.Children[0].Share == 999 {
		t.Error("Clone shares memory with original")
	}
}
