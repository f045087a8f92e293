package par

import (
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForVisitsEveryIndexOnce: whatever the work, the count and the number
// of cores, every index is handed out exactly once, worker ids are dense in
// [0, Workers), and below the threshold or on one core the loop runs inline
// and in order.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, work := range []int{0, Threshold - 1, Threshold, 1 << 20} {
			for _, n := range []int{0, 1, 3, 4, 1000} {
				workers := Workers(work, n)
				want := 1
				if work >= Threshold && n > 0 {
					want = min(procs, n)
				}
				if workers != want {
					t.Fatalf("Workers(%d, %d) on %d cores = %d, want %d", work, n, procs, workers, want)
				}
				visits := make([]atomic.Int32, n)
				byWorker := make([]atomic.Int32, workers)
				var order []int // written only when the loop is inline
				For(work, n, func(w, i int) {
					visits[i].Add(1)
					byWorker[w].Add(1) // panics on an id outside [0, workers)
					if workers == 1 {
						order = append(order, i)
					}
				})
				total := 0
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Fatalf("work %d n %d cores %d: index %d visited %d times", work, n, procs, i, v)
					}
				}
				for w := range byWorker {
					total += int(byWorker[w].Load())
				}
				if total != n {
					t.Fatalf("work %d n %d cores %d: workers made %d calls", work, n, procs, total)
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("work %d n %d: inline loop visited %d at step %d", work, n, got, i)
					}
				}
			}
		}
	}
}

// TestStripeIsFNV1a pins Stripe to the standard library's FNV-1a and to the
// stripes fixed names had under the hand-rolled loops it replaced, at the
// histogram's 64 stripes and the index's 16: moving a name would reshuffle
// both structures.
func TestStripeIsFNV1a(t *testing.T) {
	for _, tc := range []struct {
		name       string
		at64, at16 int
	}{
		{"", 37, 5},
		{"alice", 7, 7},
		{"bob", 20, 4},
		{"user0000042", 12, 12},
		{"grid/U65", 44, 12},
		{"ü", 42, 10},
	} {
		h := fnv.New64a()
		h.Write([]byte(tc.name))
		for n, want := range map[int]int{64: tc.at64, 16: tc.at16} {
			if got := Stripe(tc.name, n); got != want || got != int(h.Sum64()%uint64(n)) {
				t.Errorf("Stripe(%q, %d) = %d, want %d (FNV-1a: %d)", tc.name, n, got, want, h.Sum64()%uint64(n))
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Stripe("alice", 64) }); n != 0 {
		t.Errorf("Stripe allocates %v times per call", n)
	}
}
