package fairshare

import (
	"math"
	"runtime"
)

// memCost is what one call of a function cost the heap, as measureMem reads
// it.
type memCost struct {
	// bytes and objects are what the call allocated.
	bytes, objects uint64
	// live is how much the in-use heap grew across the call, both sides read
	// after a runtime.GC(): what the call's result holds.
	live int64
}

// measureMem calls f runs times and returns the least of each figure over
// the runs. runtime.MemStats count the whole process, so one bracket also
// counts what any other goroutine allocated meanwhile: each run starts after
// a runtime.GC(), at GOMAXPROCS 1 as testing.AllocsPerRun runs, and only a
// figure every run reads survives the minimum. f's result is kept reachable
// until the live heap is read.
func measureMem(runs int, f func() any) memCost {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := memCost{bytes: math.MaxUint64, objects: math.MaxUint64, live: math.MaxInt64}
	for range runs {
		var before, after, held runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := f()
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&held)
		runtime.KeepAlive(r)
		least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
		least.objects = min(least.objects, after.Mallocs-before.Mallocs)
		least.live = min(least.live, int64(held.HeapAlloc)-int64(before.HeapAlloc))
	}
	return least
}

// meanAllocs calls f runs times at GOMAXPROCS 1 and returns the objects it
// allocated per call: testing.AllocsPerRun's mean without its rounding down,
// so an allocation that only one call in several makes still shows, where
// measureMem's least and AllocsPerRun's truncation both hide it.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
