package policy

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// TestNodeIs48Bytes pins what a policy node costs: at 1M users the policy
// tree holds more of a site's heap than anything else. A node is 48 B, a Go
// size class, and a built 100 × 10 × 100 tree costs at most 57 B per node:
// the node, its 8 B slot in its parent's child array, and that array's
// size-class rounding (a 100-slot array is 800 B, allocated as 896 B). A
// 64 B node reads ≈73 B. The bytes are the least of five builds, each
// measured after a GC.
func TestNodeIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 48", got)
	}
	names := make([]string, 100) // shared by every level: the build allocates no string
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	fanout := []int{100, 10, 100}
	var grow func(level int) []*Node
	grow = func(level int) []*Node {
		if level == len(fanout) {
			return nil
		}
		out := make([]*Node, fanout[level])
		for i := range out {
			out[i] = &Node{Name: names[i], Share: 1, Children: grow(level + 1)}
		}
		return out
	}
	const nodes = 1 + 100 + 100*10 + 100*10*100
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := &Tree{Root: &Node{Share: 1, Children: grow(0)}}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		least = min(least, after.HeapAlloc-before.HeapAlloc)
	}
	if per := float64(least) / nodes; per > 57 {
		t.Errorf("a built tree holds %.2f B per node, want at most 57", per)
	} else {
		t.Logf("%.2f B per node", per)
	}
}
