package policy

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// checkAccepted holds for every tree a decoder accepts: it validates, and it
// normalises to finite shares in [0, 1], down to every user's product.
func checkAccepted(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("accepted tree fails Validate: %v", err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			if math.IsNaN(c.Share) || c.Share < 0 || c.Share > 1 {
				t.Fatalf("%q normalises to share %v", c.Name, c.Share)
			}
			walk(c)
		}
	}
	walk(tr.Normalize().Root)
	for u, s := range FlatShares(tr) {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("user %q has target share %v", u, s)
		}
	}
}

// FuzzReadText attacks the text policy decoder, which reads aequusd's
// -policy file. For any input it must not panic; a tree it accepts must
// validate and normalise to finite shares in [0, 1]; and WriteText →
// ReadText must give the same tree back.
//
// The seed corpus under testdata/fuzz/FuzzReadText holds a small hierarchy,
// an infinite share and two siblings whose shares overflow when summed.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		checkAccepted(t, tr)
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatal(err)
		}
		again, err := ReadText(&buf)
		if err != nil || !reflect.DeepEqual(again, tr) {
			t.Fatalf("WriteText → ReadText: %+v, %v; want %+v", again, err, tr)
		}
	})
}

// FuzzFromJSON attacks the JSON policy decoder, which reads POST /policy
// bodies and replayed policies. For any input it must not panic; a tree it
// accepts must validate and normalise to finite shares in [0, 1]; and
// ToJSON → FromJSON must give a tree that encodes to the same bytes.
//
// The seed corpus under testdata/fuzz/FuzzFromJSON holds a mounted
// hierarchy, two siblings whose shares overflow when summed, a null child
// and an empty child list.
func FuzzFromJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := FromJSON(in)
		if err != nil {
			return
		}
		checkAccepted(t, tr)
		data, err := ToJSON(tr)
		if err != nil {
			t.Fatal(err)
		}
		again, err := FromJSON(data)
		if err != nil {
			t.Fatalf("FromJSON(ToJSON(tree)): %v", err)
		}
		// Bytes, not structs: the encoder writes an empty child list and a
		// missing one alike.
		if data2, _ := ToJSON(again); !bytes.Equal(data2, data) {
			t.Fatalf("ToJSON → FromJSON → ToJSON: %s; want %s", data2, data)
		}
	})
}
