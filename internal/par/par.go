// Package par is the one worker pool of the fairshare engine and the FCS
// publish pass: a parallel for-loop with one threshold below which it is an
// ordinary loop. It also holds the one string hash that shards user-keyed
// state into stripes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Threshold is the amount of work (leaves, nodes, users: whatever one unit of
// the caller's loop costs about a microsecond for) below which For runs
// inline: starting goroutines would cost more than the arithmetic they spread.
const Threshold = 4096

// Workers reports how many goroutines For(work, n, …) runs fn on: one when
// the work is below Threshold or there is one core, otherwise
// min(GOMAXPROCS, n). Callers that keep per-worker state size it with this.
func Workers(work, n int) int {
	if work < Threshold {
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// For calls fn(worker, i) exactly once for every i in [0, n) and returns when
// all calls have. With one worker the calls run on the caller's goroutine in
// index order; otherwise the workers pull indexes from a shared counter, so
// which worker gets which index is not defined and fn must write only state
// owned by i or by worker (ids are dense in [0, Workers(work, n))).
func For(work, n int, fn func(worker, i int)) {
	workers := Workers(work, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Stripe returns which of n stripes name falls on: its FNV-1a 64-bit hash
// modulo n, computed without allocating. The usage histogram's lock stripes
// and the fairshare index's user maps both shard with it.
func Stripe(name string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(n))
}
