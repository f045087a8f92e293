package fairshare

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// fuzzPolicy decodes a policy of at most 32 nodes from shape, two bytes per
// node. The first byte picks the parent among the root and the groups added
// so far (a>>1) and whether the node is a leaf (a&1 == 0) or a group; the
// second gives its raw share, b&3 (zero included), and a leaf's name,
// u<(b>>2)%6>, so names repeat across groups. A group that gets no children
// is a leaf under its own name. It returns the policy and its distinct leaf
// names.
func fuzzPolicy(shape []byte) (*policy.Tree, []string) {
	root := &policy.Node{Share: 1}
	groups := []*policy.Node{root}
	for k := 0; k+1 < len(shape) && k < 64; k += 2 {
		a, b := shape[k], shape[k+1]
		parent := groups[int(a>>1)%len(groups)]
		n := &policy.Node{Share: float64(b & 3)}
		if a&1 == 0 {
			n.Name = fmt.Sprintf("u%d", int(b>>2)%6)
		} else {
			n.Name = fmt.Sprintf("g%d", len(groups))
			groups = append(groups, n)
		}
		parent.Children = append(parent.Children, n)
	}
	var names []string
	seen := map[string]bool{}
	var walk func(n *policy.Node)
	walk = func(n *policy.Node) {
		for _, c := range n.Children {
			if len(c.Children) == 0 && !seen[c.Name] {
				seen[c.Name] = true
				names = append(names, c.Name)
			}
			walk(c)
		}
	}
	walk(root)
	return &policy.Tree{Root: root}, names
}

// FuzzRecalcTwin checks the incremental engine against its twin: for a
// random small policy (see fuzzPolicy) and a random sequence of usage deltas,
// every Apply must give a tree and an index bitwise equal to a from-scratch
// Compute+NewIndex over the merged usage.
//
// deltas is read two bytes per update (u, v): the user is the (u&0x7f)-th of
// the policy's leaf names plus one unknown name, and the value is 0 for v = 0,
// the user's current usage (a bitwise no-op) for v = 1, and v/3 otherwise. An
// update with u&0x80 set ends a step. The first step is the usage of the
// initial full build; every later one goes through Apply.
//
// The seed corpus under testdata/fuzz/FuzzRecalcTwin holds mixed leaf and
// group siblings, a leaf directly under the root, duplicate leaf names, a
// zero-share group, and usage that is zero throughout.
func FuzzRecalcTwin(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, deltas []byte) {
		p, names := fuzzPolicy(shape)
		names = append(names, "ghost")
		cfg := DefaultConfig()
		usage := map[string]float64{}
		var eng *Recalc
		step := map[string]float64{}
		flush := func() {
			for u, v := range step {
				usage[u] = v
			}
			if eng == nil {
				tree := Compute(p, usage, cfg)
				eng = NewRecalc(tree, NewIndex(tree))
			} else {
				gotTree, gotIx, _, err := eng.Apply(step)
				if err != nil {
					t.Fatalf("Apply(%v): %v", step, err)
				}
				wantTree := Compute(p, usage, cfg)
				compareTrees(t, gotTree, wantTree)
				compareIndexes(t, gotIx, NewIndex(wantTree))
			}
			step = map[string]float64{}
		}
		for k := 0; k+1 < len(deltas) && k < 128; k += 2 {
			u, v := deltas[k], deltas[k+1]
			user := names[int(u&0x7f)%len(names)]
			switch v {
			case 0:
				step[user] = 0
			case 1:
				step[user] = usage[user]
			default:
				step[user] = float64(v) / 3
			}
			if u&0x80 != 0 {
				flush()
			}
		}
		flush()
	})
}
