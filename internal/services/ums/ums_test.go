package ums

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/usage"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func constSource(totals map[string]float64) Source {
	return SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
		cp := map[string]float64{}
		for k, v := range totals {
			cp[k] = v
		}
		return cp, nil
	})
}

func TestUsageTotalsCached(t *testing.T) {
	clock := simclock.NewSim(t0)
	calls := 0
	src := SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
		calls++
		return map[string]float64{"a": float64(calls)}, nil
	})
	s := New(Config{Clock: clock, CacheTTL: time.Minute}, src)

	got1, at1, _ := s.UsageTotals()
	got2, at2, _ := s.UsageTotals()
	if calls != 1 {
		t.Errorf("source called %d times within TTL", calls)
	}
	if got1["a"] != got2["a"] || !at1.Equal(at2) {
		t.Error("cached result differs")
	}

	clock.Advance(2 * time.Minute)
	got3, at3, _ := s.UsageTotals()
	if calls != 2 {
		t.Errorf("source called %d times after TTL expiry", calls)
	}
	if got3["a"] != 2 || !at3.After(at1) {
		t.Errorf("refreshed = %v at %v", got3, at3)
	}
}

func TestInvalidateForcesRecompute(t *testing.T) {
	clock := simclock.NewSim(t0)
	calls := 0
	src := SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
		calls++
		return nil, nil
	})
	s := New(Config{Clock: clock, CacheTTL: time.Hour}, src)
	s.UsageTotals()
	s.Invalidate()
	s.UsageTotals()
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	s := New(Config{Clock: simclock.NewSim(t0)},
		SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
			return nil, errors.New("uss down")
		}))
	if _, _, err := s.UsageTotals(); err == nil {
		t.Error("source error swallowed")
	}
}

func TestReturnedMapIsACopy(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := New(Config{Clock: clock, CacheTTL: time.Hour}, constSource(map[string]float64{"a": 1}))
	got, _, _ := s.UsageTotals()
	got["a"] = 999
	got2, _, _ := s.UsageTotals()
	if got2["a"] != 1 {
		t.Error("cache mutated through returned map")
	}
}

func TestDecayPassedToSources(t *testing.T) {
	want := usage.ExponentialHalfLife{HalfLife: time.Hour}
	var seen usage.Decay
	src := SourceFunc(func(_ time.Time, d usage.Decay) (map[string]float64, error) {
		seen = d
		return nil, nil
	})
	s := New(Config{Clock: simclock.NewSim(t0), Decay: want}, src)
	s.UsageTotals()
	if seen != want {
		t.Errorf("decay = %v", seen)
	}
	if s.Decay() != want {
		t.Error("Decay() mismatch")
	}
}

// blockingSource returns a source that signals `entered` when called and
// blocks until `release` is closed.
func blockingSource(entered chan<- struct{}, release <-chan struct{}, totals map[string]float64, calls *int32) Source {
	return SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
		atomic.AddInt32(calls, 1)
		entered <- struct{}{}
		<-release
		cp := map[string]float64{}
		for k, v := range totals {
			cp[k] = v
		}
		return cp, nil
	})
}

// TestComputedAtNotBlockedBySlowSource is the /readyz regression test: a
// hanging USS must not wedge ComputedAt (the recompute runs outside the
// service mutex).
func TestComputedAtNotBlockedBySlowSource(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls int32
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Minute},
		blockingSource(entered, release, map[string]float64{"a": 1}, &calls))

	go func() { s.UsageTotals() }()
	<-entered // the fetch is now in flight and hanging

	done := make(chan time.Time, 1)
	go func() { done <- s.ComputedAt() }()
	select {
	case at := <-done:
		if !at.IsZero() {
			t.Errorf("ComputedAt = %v before first recompute, want zero", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ComputedAt blocked behind a hanging source fetch")
	}
	close(release)
}

// TestUsageTotalsSingleFlight checks that concurrent stale readers share
// one source pass: of N callers, exactly one dials the source and the
// rest adopt its result.
func TestUsageTotalsSingleFlight(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls int32
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Minute},
		blockingSource(entered, release, map[string]float64{"a": 42}, &calls))

	const n = 8
	results := make(chan map[string]float64, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			got, _, err := s.UsageTotals()
			results <- got
			errs <- err
		}()
	}
	<-entered // leader is inside the source; the rest must now be waiting
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if got := <-results; got["a"] != 42 {
			t.Errorf("caller %d got %v", i, got)
		}
	}
	if c := atomic.LoadInt32(&calls); c != 1 {
		t.Errorf("source dialed %d times for %d concurrent callers, want 1", c, n)
	}
}

// TestErrorPropagatesToWaiters: every caller coalesced onto a failing
// flight sees the error.
func TestErrorPropagatesToWaiters(t *testing.T) {
	// Errors are not cached, so a caller arriving after the first flight
	// failed correctly starts a fresh flight: buffer one `entered` slot
	// per caller so those extra flights never block inside the source.
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Config{Clock: simclock.NewSim(t0)},
		SourceFunc(func(time.Time, usage.Decay) (map[string]float64, error) {
			entered <- struct{}{}
			<-release
			return nil, errors.New("uss down")
		}))
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, _, err := s.UsageTotals()
			errs <- err
		}()
	}
	<-entered
	close(release)
	for i := 0; i < 4; i++ {
		if err := <-errs; err == nil {
			t.Error("waiter did not see the flight's error")
		}
	}
}

// TestInvalidateDuringFlight: a result computed before an Invalidate must
// be served to its waiters but not cached as valid.
func TestInvalidateDuringFlight(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls int32
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour},
		blockingSource(entered, release, map[string]float64{"a": 1}, &calls))

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := s.UsageTotals(); err != nil {
			t.Errorf("in-flight read failed: %v", err)
		}
	}()
	<-entered
	s.Invalidate() // arrives mid-flight
	close(release)
	<-done

	if _, _, err := s.UsageTotals(); err != nil {
		t.Fatal(err)
	}
	if c := atomic.LoadInt32(&calls); c != 2 {
		t.Errorf("source dialed %d times, want 2 (post-invalidate read must recompute)", c)
	}
}
