package resilience

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

var errBoom = errors.New("boom")

// noSleep records requested backoff delays without waiting.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := RetryPolicy{MaxAttempts: 4, Sleep: noSleep(&delays), Jitter: -1}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    300 * time.Millisecond,
		Multiplier:  2,
		Jitter:      -1, // exact delays
		Sleep:       noSleep(&delays),
	}
	_ = p.Do(context.Background(), func(context.Context) error { return errBoom })
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		300 * time.Millisecond, 300 * time.Millisecond}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, delays[i], want[i])
		}
	}
}

func TestRetryJitterSpreadsDelays(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Second,
		Jitter:      0.5,
		Rand:        func() float64 { return 1 }, // upper edge → d*(1+jitter)
		Sleep:       noSleep(&delays),
	}
	_ = p.Do(context.Background(), func(context.Context) error { return errBoom })
	if len(delays) != 1 || delays[0] != 1500*time.Millisecond {
		t.Errorf("jittered delay = %v, want [1.5s]", delays)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := RetryPolicy{MaxAttempts: 3, Sleep: noSleep(&delays)}
	retries := 0
	p.OnRetry = func(attempt int, err error) {
		retries++
		if err != errBoom {
			t.Errorf("OnRetry err = %v", err)
		}
	}
	err := p.Do(context.Background(), func(context.Context) error { calls++; return errBoom })
	if err != errBoom || calls != 3 || retries != 2 {
		t.Errorf("Do = %v, calls = %d, retries = %d; want boom, 3, 2", err, calls, retries)
	}
}

func TestRetryPermanentErrorNotRetried(t *testing.T) {
	calls := 0
	p := RetryPolicy{MaxAttempts: 5, Sleep: noSleep(new([]time.Duration))}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(errBoom)
	})
	if calls != 1 {
		t.Errorf("permanent error retried %d times", calls-1)
	}
	if !errors.Is(err, errBoom) || !IsPermanent(err) {
		t.Errorf("err = %v, want permanent boom", err)
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestRetryStopsWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := RetryPolicy{MaxAttempts: 10, Sleep: func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	err := p.Do(ctx, func(context.Context) error { calls++; return errBoom })
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (backoff interrupted)", calls)
	}
	// The last real failure is reported, not the cancellation.
	if err != errBoom {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestRetryCanceledContextNotRetryable(t *testing.T) {
	calls := 0
	p := RetryPolicy{MaxAttempts: 5, Sleep: noSleep(new([]time.Duration))}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return context.Canceled
	})
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Errorf("calls = %d, err = %v; canceled must not be retried", calls, err)
	}
}

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	err := RetryPolicy{}.Do(context.Background(), func(context.Context) error {
		calls++
		return errBoom
	})
	if calls != 1 || err != errBoom {
		t.Errorf("zero policy: calls = %d, err = %v", calls, err)
	}
}

func TestSleepContext(t *testing.T) {
	if err := SleepContext(context.Background(), time.Millisecond); err != nil {
		t.Errorf("SleepContext = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled SleepContext = %v", err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := simclock.NewSim(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	b := NewBreaker("peer1", BreakerConfig{
		Threshold: 3,
		Cooldown:  time.Minute,
		Clock:     clock,
	}, reg)

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker rejected a call")
		}
		b.Failure(errBoom)
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v", b.State())
	}
	// An interleaved success resets the consecutive count.
	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
	b.Success()
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Failure(errBoom)
	}
	if b.State() != Closed {
		t.Fatal("success did not reset the failure count")
	}

	// The third consecutive failure trips it open.
	b.Allow()
	b.Failure(errBoom)
	if b.State() != Open {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}
	if b.Allow() {
		t.Error("open breaker allowed a call before cooldown")
	}
	if !errors.Is(b.LastError(), errBoom) {
		t.Errorf("LastError = %v", b.LastError())
	}

	// Cooldown elapses → half-open probe allowed, one at a time.
	clock.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Error("second concurrent probe allowed in half-open")
	}

	// Probe failure re-opens immediately.
	b.Failure(errBoom)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}

	// Next cooldown, successful probe closes it and clears the error.
	clock.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe rejected after second cooldown")
	}
	b.Success()
	if b.State() != Closed || b.LastError() != nil {
		t.Fatalf("state = %v, lastErr = %v; want closed, nil", b.State(), b.LastError())
	}

	// Metrics: two trips, at least two rejects, gauge back at 0.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`aequus_peer_circuit_trips_total{peer="peer1"} 2`,
		`aequus_peer_circuit_state{peer="peer1"} 0`,
	} {
		if !containsLine(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestNilBreakerAlwaysClosed(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker rejected")
	}
	b.Success()
	b.Failure(errBoom)
	if b.State() != Closed || b.LastError() != nil {
		t.Error("nil breaker not permanently closed")
	}
}

func TestBreakerSet(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewBreakerSet(BreakerConfig{Threshold: 1}, reg)
	a, b := s.For("a"), s.For("b")
	if a == nil || b == nil || a == b {
		t.Fatal("set did not hand out distinct breakers")
	}
	if s.For("a") != a {
		t.Error("set did not reuse the breaker")
	}
	a.Failure(errBoom)
	if a.State() != Open || b.State() != Closed {
		t.Error("breakers not independent")
	}

	// Disabled config → nil set → nil breakers.
	var off *BreakerSet
	if NewBreakerSet(BreakerConfig{}, reg) != nil {
		t.Error("zero-threshold set not disabled")
	}
	if off.For("x") != nil {
		t.Error("nil set handed out a breaker")
	}
}

func containsLine(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}
