package slot

import (
	"fmt"
	"math/rand"
	"testing"
)

// column is a store the way the histogram keeps one: a dense name column
// indexed by a Table, growing by Reserve and shrinking by swap-remove.
type column struct {
	names []string
	t     Table
}

func (c *column) insert(name string) {
	c.t.Reserve(c.names, len(c.names)+1)
	c.names = append(c.names, name)
	c.t.Add(Hash(name), int32(len(c.names)-1))
}

func (c *column) remove(pos int32) {
	c.t.Delete(c.names, Hash(c.names[pos]), pos)
	last := int32(len(c.names) - 1)
	if pos != last {
		c.t.Move(Hash(c.names[last]), last, pos)
		c.names[pos] = c.names[last]
	}
	c.names = c.names[:last]
}

// check holds the table to the column: every name found at its position,
// names outside it not found, the load at most one half.
func (c *column) check(t *testing.T, absent []string) {
	t.Helper()
	if c.t.Len() != len(c.names) {
		t.Fatalf("table holds %d, column %d", c.t.Len(), len(c.names))
	}
	if 2*c.t.Len() > len(c.t.slots) {
		t.Fatalf("%d names in %d slots", c.t.Len(), len(c.t.slots))
	}
	for p, name := range c.names {
		if got, ok := c.t.Find(c.names, name, Hash(name)); !ok || int(got) != p {
			t.Fatalf("%s at %d found at %d (%v)", name, p, got, ok)
		}
	}
	for _, name := range absent {
		if got, ok := c.t.Find(c.names, name, Hash(name)); ok {
			t.Fatalf("removed %s found at %d", name, got)
		}
	}
}

// TestTableFollowsTheColumn runs random inserts and swap-removes over a pool
// small enough that probe runs wrap around the table's end and deletions
// shift entries back across it, and a run long enough to grow it several
// times.
func TestTableFollowsTheColumn(t *testing.T) {
	for seq := 0; seq < 50; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		pool := 4 + rng.Intn(300)
		var c column
		in := map[string]bool{}
		for step := 0; step < 2000; step++ {
			name := fmt.Sprintf("u%d", rng.Intn(pool))
			if !in[name] {
				c.insert(name)
				in[name] = true
			} else if p, ok := c.t.Find(c.names, name, Hash(name)); ok {
				c.remove(p)
				delete(in, name)
			} else {
				t.Fatalf("seq %d step %d: %s lost", seq, step, name)
			}
			if step%97 == 0 {
				var absent []string
				for i := 0; i < pool; i++ {
					if n := fmt.Sprintf("u%d", i); !in[n] {
						absent = append(absent, n)
					}
				}
				c.check(t, absent)
			}
		}
		c.check(t, nil)
	}
}

// TestMakeSizesForHalfLoad: a table made for n names holds them at load
// one half or below, in a power of two of slots, and a zero table finds
// nothing.
func TestMakeSizesForHalfLoad(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 1000, 1 << 16} {
		tab := Make(n)
		size := len(tab.slots)
		if size&(size-1) != 0 || size < 2*n {
			t.Fatalf("Make(%d): %d slots", n, size)
		}
	}
	var zero Table
	if _, ok := zero.Find(nil, "x", Hash("x")); ok {
		t.Fatal("the zero table found a name")
	}
}
