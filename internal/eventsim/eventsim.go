// Package eventsim implements a small discrete-event simulation kernel.
// Events are scheduled at absolute simulated times and executed in time
// order; ties are broken by scheduling order so runs are deterministic.
// The kernel drives a simclock.Sim so every component that reads the clock
// observes a consistent notion of "now".
package eventsim

import (
	"container/heap"
	"time"

	"repro/internal/simclock"
)

// Event is a callback executed at a scheduled simulation time.
type Event func(now time.Time)

type item struct {
	at  time.Time
	seq uint64
	fn  Event
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all scheduling must happen from event callbacks or from the
// goroutine calling Run.
type Kernel struct {
	clock *simclock.Sim
	queue eventHeap
	seq   uint64
}

// New returns a kernel whose simulated clock starts at epoch.
func New(epoch time.Time) *Kernel {
	return &Kernel{clock: simclock.NewSim(epoch)}
}

// Clock exposes the kernel's simulated clock for injection into components.
func (k *Kernel) Clock() *simclock.Sim { return k.clock }

// Now returns the current simulated time.
func (k *Kernel) Now() time.Time { return k.clock.Now() }

// At schedules fn to run at the absolute simulated time t. Events scheduled
// in the past run at the current time instead (the kernel never rewinds).
func (k *Kernel) At(t time.Time, fn Event) {
	if fn == nil {
		return
	}
	if t.Before(k.clock.Now()) {
		t = k.clock.Now()
	}
	k.seq++
	heap.Push(&k.queue, &item{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d after the current simulated time.
func (k *Kernel) After(d time.Duration, fn Event) {
	k.At(k.clock.Now().Add(d), fn)
}

// Every schedules fn to run repeatedly with period d, starting d from now,
// until stop returns true (checked before each execution). A nil stop runs
// forever (bounded only by Run's until/limit).
func (k *Kernel) Every(d time.Duration, fn Event, stop func() bool) {
	if d <= 0 || fn == nil {
		return
	}
	var tick Event
	tick = func(now time.Time) {
		if stop != nil && stop() {
			return
		}
		fn(now)
		k.After(d, tick)
	}
	k.After(d, tick)
}

// NextAt returns the scheduled time of the earliest pending event. The
// second return is false when the queue is empty. Step-wise drivers (the
// scenario harness) use it to bound execution without consuming events.
func (k *Kernel) NextAt() (time.Time, bool) {
	if len(k.queue) == 0 {
		return time.Time{}, false
	}
	return k.queue[0].at, true
}

// Step executes the next event, advancing the clock to its time. It reports
// whether an event was executed.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	it := heap.Pop(&k.queue).(*item)
	k.clock.Set(it.at)
	it.fn(k.clock.Now())
	return true
}

// Run executes events until the queue is empty or the next event would be
// after until. It returns the number of events executed.
func (k *Kernel) Run(until time.Time) int {
	n := 0
	for len(k.queue) > 0 && !k.queue[0].at.After(until) {
		k.Step()
		n++
	}
	// Leave the clock at `until` so callers observe the full window elapsed.
	k.clock.Set(until)
	return n
}

// RunAll executes events until the queue is empty or limit events have run
// (limit <= 0 means no limit). It returns the number executed.
func (k *Kernel) RunAll(limit int) int {
	n := 0
	for len(k.queue) > 0 {
		if limit > 0 && n >= limit {
			break
		}
		k.Step()
		n++
	}
	return n
}
