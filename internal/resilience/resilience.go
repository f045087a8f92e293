// Package resilience provides the failure-handling primitives shared by
// every cross-site and client→service call in the Aequus stack: bounded,
// context-aware retry with exponential backoff and jitter, and per-peer
// circuit breakers (closed/open/half-open) whose state and trip counters are
// wired into the telemetry registry.
//
// The paper's partial-exchange flags exist because peer sites are slow,
// flaky, or absent; this package is what keeps one hung peer from stalling
// an exchange round and one flapping peer from silently degrading global
// priorities. The design rule is graceful degradation: local serving never
// depends on a remote call succeeding, and remote failures surface through
// metrics and /readyz instead of through blocked hot paths.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Default retry parameters, used when the corresponding RetryPolicy field is
// zero.
const (
	DefaultBaseDelay = 100 * time.Millisecond
	DefaultMaxDelay  = 5 * time.Second
)

// Every retry doubles the delay and spreads it by ±20 %, which
// de-synchronizes retry storms across clients.
const (
	backoffFactor = 2.0
	jitterSpread  = 0.2
)

// The package-default jitter source is an explicit seeded PRNG rather than
// the global math/rand functions, so no randomized code path depends on
// global state; a policy that needs exact delays injects RetryPolicy.Rand.
// Jitter only needs spread within a process, not unpredictability, so a
// fixed seed is fine.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(1))
)

func defaultJitterRand() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRng.Float64()
}

// RetryPolicy bounds how a transiently failing call is retried. The zero
// value performs exactly one attempt (no retries), so wiring the policy
// through a Config never changes behaviour until someone asks for it. Every
// failure is retried except Permanent errors and context cancellation.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 1 means no retries).
	MaxAttempts int
	// BaseDelay is the wait before the first retry (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 5s).
	MaxDelay time.Duration
	// Sleep waits between attempts (default SleepContext). Tests inject a
	// recording no-op to keep retries instantaneous and deterministic.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand yields jitter randomness in [0,1) (default: the package's
	// seeded jitter source). A Rand that returns 0.5 gives exact delays.
	Rand func() float64
	// OnRetry observes every scheduled retry (attempt number of the failed
	// try, its error) — the hook retry counters and logs hang off.
	OnRetry func(attempt int, err error)
}

// Do runs fn, retrying transient failures per the policy. It returns nil on
// the first success, the last error once attempts are exhausted, the error
// unmodified when it is not retryable, and the last attempt's error when the
// context ends during backoff. The context is passed through to fn so
// deadlines propagate into every attempt.
func (p RetryPolicy) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = SleepContext
	}
	delay := p.BaseDelay
	if delay <= 0 {
		delay = DefaultBaseDelay
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = DefaultMaxDelay
	}
	rnd := p.Rand
	if rnd == nil {
		rnd = defaultJitterRand
	}

	var err error
	for attempt := 1; ; attempt++ {
		err = fn(ctx)
		if err == nil || attempt >= attempts || !retryable(err) {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		// Spread in [delay*(1-jitterSpread), delay*(1+jitterSpread)].
		d := time.Duration(float64(delay) * (1 - jitterSpread + 2*jitterSpread*rnd()))
		if sleepErr := sleep(ctx, d); sleepErr != nil {
			// The caller's deadline ended the backoff; the last real
			// failure is more informative than "context canceled".
			return err
		}
		delay = time.Duration(float64(delay) * backoffFactor)
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

// SleepContext waits d or until ctx ends, returning ctx.Err() in the latter
// case.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks an error as not worth retrying (e.g. a 4xx response:
// the request itself is wrong, repeating it cannot help).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do does not retry it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// retryable reports whether a failure is worth another attempt: every one
// except Permanent errors and caller-side context cancellation. A
// DeadlineExceeded is retryable: it is usually a per-attempt timeout, and
// when it is the caller's own deadline the backoff sleep terminates the
// loop anyway.
func retryable(err error) bool {
	if err == nil || IsPermanent(err) {
		return false
	}
	return !errors.Is(err, context.Canceled)
}
