package pds

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/policy"
)

func localPolicy(t *testing.T) *policy.Tree {
	t.Helper()
	p := policy.NewTree()
	if _, err := p.Add("", "local", 40); err != nil {
		t.Fatal(err)
	}
	return p
}

func remoteSubtree(shareA, shareB float64) *policy.Node {
	return &policy.Node{Name: "", Share: 1, Children: []*policy.Node{
		{Name: "projA", Share: shareA},
		{Name: "projB", Share: shareB},
	}}
}

// TestPolicySnapshotIsolation: Policy hands out the one tree the service
// holds, so two reads with no edit between them are the same pointer, and
// every edit publishes a new tree while a tree taken before it stays as it
// was. This is what the clone on every read used to protect: a reader
// never sees a tree change under it.
func TestPolicySnapshotIsolation(t *testing.T) {
	shareA := 3.0
	fetch := func(string) (*policy.Node, error) { return remoteSubtree(shareA, 1), nil }
	s := New(localPolicy(t), fetch)
	if s.Policy() != s.Policy() {
		t.Fatal("two Policy() reads with no edit between them returned different trees")
	}
	for _, edit := range []struct {
		name string
		do   func() error
	}{
		{"Mount", func() error { return s.Mount("", "grid", 60, "pds://national") }},
		{"RefreshMounts", func() error { shareA = 1; return s.RefreshMounts() }},
		{"SetPolicy", func() error { return s.SetPolicy(localPolicy(t)) }},
	} {
		before := s.Policy()
		want := before.Clone()
		if err := edit.do(); err != nil {
			t.Fatalf("%s: %v", edit.name, err)
		}
		if !reflect.DeepEqual(before, want) {
			t.Errorf("%s changed a tree taken before it", edit.name)
		}
		if s.Policy() == before {
			t.Errorf("%s did not publish a new tree", edit.name)
		}
	}
}

func TestSetPolicyValidates(t *testing.T) {
	s := New(nil, nil)
	bad := policy.NewTree()
	bad.Root.Children = []*policy.Node{{Name: "x", Share: -1}}
	if err := s.SetPolicy(bad); err == nil {
		t.Error("invalid policy accepted")
	}
	if err := s.SetPolicy(nil); err == nil {
		t.Error("nil policy accepted")
	}
	good := localPolicy(t)
	if err := s.SetPolicy(good); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policy().Lookup("/local"); err != nil {
		t.Error("policy not applied")
	}
}

func TestMountFetchesAndRefreshes(t *testing.T) {
	version := 1
	fetch := func(origin string) (*policy.Node, error) {
		if origin != "pds://national" {
			return nil, errors.New("unknown origin")
		}
		if version == 1 {
			return remoteSubtree(3, 1), nil
		}
		return remoteSubtree(1, 1), nil
	}
	s := New(localPolicy(t), fetch)
	if err := s.Mount("", "grid", 60, "pds://national"); err != nil {
		t.Fatal(err)
	}
	n, err := s.Policy().Lookup("/grid/projA")
	if err != nil || n.Share != 3 {
		t.Fatalf("mounted projA = %+v, %v", n, err)
	}
	// Remote policy update propagates on refresh.
	version = 2
	if err := s.RefreshMounts(); err != nil {
		t.Fatal(err)
	}
	n, _ = s.Policy().Lookup("/grid/projA")
	if n.Share != 1 {
		t.Errorf("refreshed projA share = %g, want 1", n.Share)
	}
}

func TestMountErrors(t *testing.T) {
	s := New(localPolicy(t), nil)
	if err := s.Mount("", "g", 1, "x"); err == nil {
		t.Error("mount without fetcher accepted")
	}
	s2 := New(localPolicy(t), func(string) (*policy.Node, error) {
		return nil, errors.New("boom")
	})
	if err := s2.Mount("", "g", 1, "x"); err == nil {
		t.Error("fetch failure not propagated")
	}
}

func TestRefreshMountsToleratesFailures(t *testing.T) {
	calls := 0
	fetch := func(origin string) (*policy.Node, error) {
		calls++
		if origin == "bad" {
			return nil, errors.New("down")
		}
		return remoteSubtree(1, 2), nil
	}
	s := New(localPolicy(t), fetch)
	if err := s.Mount("", "g1", 1, "bad"); err == nil {
		t.Fatal("mounting from a down origin should fail")
	}
	if err := s.Mount("", "g2", 1, "good"); err != nil {
		t.Fatal(err)
	}
	// One bad origin must not prevent refreshing good ones... here only g2
	// is mounted, so refresh succeeds.
	if err := s.RefreshMounts(); err != nil {
		t.Errorf("refresh err = %v", err)
	}
	// No fetcher: refresh is a no-op.
	s3 := New(nil, nil)
	if err := s3.RefreshMounts(); err != nil {
		t.Errorf("no-fetcher refresh err = %v", err)
	}
}

func TestSubtree(t *testing.T) {
	s := New(localPolicy(t), nil)
	sub, err := s.Subtree("/local")
	if err != nil || sub.Name != "local" {
		t.Fatalf("Subtree = %+v, %v", sub, err)
	}
	// The node is the policy's own, not a copy (both are read-only).
	if n, _ := s.Policy().Lookup("/local"); n != sub {
		t.Error("Subtree returned a copy of the policy's node")
	}
	if _, err := s.Subtree("/missing"); err == nil {
		t.Error("missing subtree accepted")
	}
}
