package policy

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	tr := paperTree(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Leaves(), back.Leaves()
	if len(a) != len(b) {
		t.Fatalf("leaf counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Path != b[i].Path {
			t.Errorf("leaf %d path %q vs %q", i, a[i].Path, b[i].Path)
		}
		for j := range a[i].Shares {
			if math.Abs(a[i].Shares[j]-b[i].Shares[j]) > 1e-12 {
				t.Errorf("leaf %s shares %v vs %v", a[i].Path, a[i].Shares, b[i].Shares)
			}
		}
	}
}

func TestReadTextRejectsMalformed(t *testing.T) {
	bad := []string{
		"/a",               // missing share
		"/a one",           // bad share
		"/ 1",              // root share
		"/missing/child 1", // parent not defined yet
		"/a 1 extra",       // too many fields
	}
	for _, line := range bad {
		if _, err := ReadText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("line %q accepted", line)
		}
	}
}

func TestReadTextSkipsComments(t *testing.T) {
	src := "# comment\n\n/a 2\n/a/x 1\n"
	tr, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup("/a/x"); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := paperTree(t)
	data, err := ToJSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Leaves()) != len(tr.Leaves()) {
		t.Error("JSON round trip lost leaves")
	}
	if _, err := FromJSON([]byte("{bad")); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Invalid shares rejected on parse.
	if _, err := FromJSON([]byte(`{"root":{"name":"","share":1,"children":[{"name":"x","share":-1}]}}`)); err == nil {
		t.Error("negative share accepted via JSON")
	}
	// Missing root tolerated.
	empty, err := FromJSON([]byte(`{}`))
	if err != nil || empty.Root == nil {
		t.Errorf("empty JSON: %v", err)
	}
}

func TestFlatShares(t *testing.T) {
	tr := paperTree(t)
	fs := FlatShares(tr)
	// u2: 0.6 * 0.75 * 0.75 = 0.3375
	if math.Abs(fs["u2"]-0.3375) > 1e-12 {
		t.Errorf("u2 flat share = %g", fs["u2"])
	}
	// hq: 0.3
	if math.Abs(fs["hq"]-0.3) > 1e-12 {
		t.Errorf("hq flat share = %g", fs["hq"])
	}
	var sum float64
	for _, v := range fs {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("flat shares sum to %g", sum)
	}
}

func TestFromShares(t *testing.T) {
	tr, err := FromShares(map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	fs := FlatShares(tr)
	if math.Abs(fs["a"]-0.5) > 1e-12 {
		t.Errorf("a share = %g", fs["a"])
	}
	if _, err := FromShares(map[string]float64{"a": 0}); err == nil {
		t.Error("zero share accepted")
	}
}
