package eventsim

import (
	"testing"
	"time"
)

var epoch = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New(epoch)
	var order []int
	k.At(epoch.Add(3*time.Second), func(time.Time) { order = append(order, 3) })
	k.At(epoch.Add(1*time.Second), func(time.Time) { order = append(order, 1) })
	k.At(epoch.Add(2*time.Second), func(time.Time) { order = append(order, 2) })
	k.RunAll(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTiesBreakBySchedulingOrder(t *testing.T) {
	k := New(epoch)
	at := epoch.Add(time.Second)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.At(at, func(time.Time) { order = append(order, i) })
	}
	k.RunAll(0)
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	k := New(epoch)
	var seen time.Time
	k.After(42*time.Second, func(now time.Time) { seen = now })
	k.RunAll(0)
	if want := epoch.Add(42 * time.Second); !seen.Equal(want) {
		t.Fatalf("event saw now=%v, want %v", seen, want)
	}
	if !k.Now().Equal(epoch.Add(42 * time.Second)) {
		t.Fatalf("kernel clock = %v", k.Now())
	}
}

func TestPastEventRunsNow(t *testing.T) {
	k := New(epoch)
	k.Clock().Advance(time.Hour)
	var seen time.Time
	k.At(epoch, func(now time.Time) { seen = now })
	k.RunAll(0)
	if want := epoch.Add(time.Hour); !seen.Equal(want) {
		t.Fatalf("past event ran at %v, want clamped to %v", seen, want)
	}
}

func TestRunUntilStopsAndSetsClock(t *testing.T) {
	k := New(epoch)
	ran := 0
	for i := 1; i <= 10; i++ {
		k.At(epoch.Add(time.Duration(i)*time.Minute), func(time.Time) { ran++ })
	}
	n := k.Run(epoch.Add(5 * time.Minute))
	if n != 5 || ran != 5 {
		t.Fatalf("Run executed %d (%d side effects), want 5", n, ran)
	}
	if !k.Now().Equal(epoch.Add(5 * time.Minute)) {
		t.Fatalf("clock after Run = %v, want %v", k.Now(), epoch.Add(5*time.Minute))
	}
	if n := k.RunAll(0); n != 5 {
		t.Fatalf("%d events left after Run, want 5", n)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := New(epoch)
	count := 0
	var chain Event
	chain = func(time.Time) {
		count++
		if count < 100 {
			k.After(time.Second, chain)
		}
	}
	k.After(time.Second, chain)
	k.RunAll(0)
	if count != 100 {
		t.Fatalf("chained events ran %d times, want 100", count)
	}
	if want := epoch.Add(100 * time.Second); !k.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v", k.Now(), want)
	}
}

func TestEvery(t *testing.T) {
	k := New(epoch)
	count := 0
	k.Every(time.Minute, func(time.Time) { count++ }, func() bool { return count >= 7 })
	k.RunAll(0)
	if count != 7 {
		t.Fatalf("Every ran %d times, want 7", count)
	}
}

func TestEveryWithRunUntil(t *testing.T) {
	k := New(epoch)
	count := 0
	k.Every(time.Minute, func(time.Time) { count++ }, nil)
	k.Run(epoch.Add(30 * time.Minute))
	if count != 30 {
		t.Fatalf("Every ran %d times in 30 minutes, want 30", count)
	}
}

func TestRunAllLimit(t *testing.T) {
	k := New(epoch)
	k.Every(time.Second, func(time.Time) {}, nil)
	n := k.RunAll(25)
	if n != 25 {
		t.Fatalf("RunAll(25) executed %d", n)
	}
}

func TestNilAndNonPositiveInputsIgnored(t *testing.T) {
	k := New(epoch)
	k.At(epoch.Add(time.Second), nil)
	k.Every(0, func(time.Time) {}, nil)
	k.Every(-time.Second, func(time.Time) {}, nil)
	k.Every(time.Second, nil, nil)
	if at, ok := k.NextAt(); ok {
		t.Fatalf("an event is pending at %v, want none", at)
	}
}

func TestNextAtPeeksEarliestPending(t *testing.T) {
	k := New(epoch)
	if _, ok := k.NextAt(); ok {
		t.Fatal("NextAt on an empty kernel reported a pending event")
	}
	k.At(epoch.Add(5*time.Second), func(time.Time) {})
	k.At(epoch.Add(2*time.Second), func(time.Time) {})
	at, ok := k.NextAt()
	if !ok || !at.Equal(epoch.Add(2*time.Second)) {
		t.Fatalf("NextAt = (%v, %v), want (%v, true)", at, ok, epoch.Add(2*time.Second))
	}
	// Peeking must not consume: stepping still runs the earliest event.
	if !k.Step() {
		t.Fatal("Step found nothing after NextAt")
	}
	if !k.Now().Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("clock at %v after first step", k.Now())
	}
	at, ok = k.NextAt()
	if !ok || !at.Equal(epoch.Add(5*time.Second)) {
		t.Fatalf("NextAt after step = (%v, %v), want (%v, true)", at, ok, epoch.Add(5*time.Second))
	}
}
