// Package faultinject is the deterministic fault-injection harness behind
// the chaos tests: an Injector evaluates a schedule of fault windows against
// a (usually simulated) clock and a seeded PRNG, and proxies — an
// http.RoundTripper here, the testbed's peer wrapper — consult it on every
// call to decide whether to inject latency, an error, a timeout, a
// connection reset, or probabilistic flapping.
//
// Everything is deterministic given the same clock readings and seed, which
// is what lets CI assert exact convergence behaviour ("priorities equal the
// fault-free fixture two rounds after the faults clear") instead of eyeball
// flakiness.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/simclock"
)

// Kind is a category of injected fault.
type Kind int

// Fault kinds.
const (
	// None: the call passes through untouched.
	None Kind = iota
	// Error: the call fails immediately with an injected error.
	Error
	// Timeout: the call hangs until its context deadline and fails with
	// the context's error — the hung-peer scenario.
	Timeout
	// Reset: the call fails with a connection-reset network error.
	Reset
	// Latency: the call is delayed by Window.Latency, then passes through.
	Latency
	// Flap: the call fails with probability Window.Rate, else passes — the
	// flaky-peer scenario.
	Flap
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Timeout:
		return "timeout"
	case Reset:
		return "reset"
	case Latency:
		return "latency"
	case Flap:
		return "flap"
	default:
		return "unknown"
	}
}

// Window schedules one fault behaviour over a clock interval. Windows are
// evaluated in order; the first active one wins.
type Window struct {
	// From/Until bound the window on the injector's clock: active when
	// From <= now < Until. A zero From means "since forever", a zero Until
	// means "forever on".
	From, Until time.Time
	// Kind is the fault to inject while active.
	Kind Kind
	// Rate is the per-call fault probability for Flap (clamped to [0,1]).
	Rate float64
	// Latency is the injected delay for Latency faults.
	Latency time.Duration
	// Err overrides the synthesized error for Error/Flap faults.
	Err error
}

func (w Window) active(now time.Time) bool {
	if !w.From.IsZero() && now.Before(w.From) {
		return false
	}
	return w.Until.IsZero() || now.Before(w.Until)
}

// Fault is one decided injection.
type Fault struct {
	Kind    Kind
	Latency time.Duration
	Err     error
}

// Injector decides, per call, which fault (if any) to inject right now. It
// is safe for concurrent use and fully deterministic for a given clock
// trajectory and seed (concurrent callers racing for the PRNG excepted —
// deterministic tests issue calls sequentially).
type Injector struct {
	clock simclock.Clock

	mu      sync.Mutex
	rng     *rand.Rand
	windows []Window
	counts  map[Kind]int
}

// New creates an injector evaluating windows on clock (default wall clock)
// with a seeded PRNG for Flap decisions.
func New(clock simclock.Clock, seed int64, windows ...Window) *Injector {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Injector{
		clock:   clock,
		rng:     rand.New(rand.NewSource(seed)),
		windows: append([]Window(nil), windows...),
		counts:  map[Kind]int{},
	}
}

// SetWindows replaces the fault schedule (e.g. to clear all faults mid-run).
func (in *Injector) SetWindows(windows ...Window) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.windows = append([]Window(nil), windows...)
}

// Decide evaluates the schedule at the current clock reading. The returned
// Fault has Kind None when the call should pass through.
func (in *Injector) Decide() Fault {
	now := in.clock.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, w := range in.windows {
		if !w.active(now) {
			continue
		}
		f := Fault{Kind: w.Kind, Latency: w.Latency, Err: w.Err}
		switch w.Kind {
		case None:
			return Fault{}
		case Flap:
			if in.rng.Float64() >= w.Rate {
				return Fault{}
			}
			f.Kind = Error // a flap that fires is an error fault
			if f.Err == nil {
				f.Err = fmt.Errorf("faultinject: flapping peer (window %v–%v)", w.From, w.Until)
			}
		case Error:
			if f.Err == nil {
				f.Err = fmt.Errorf("faultinject: injected error (window %v–%v)", w.From, w.Until)
			}
		case Reset:
			f.Err = &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
		}
		in.counts[w.Kind]++
		return f
	}
	return Fault{}
}

// Counts returns how many times each kind fired (Flap counts only firing
// flaps, not pass-throughs).
func (in *Injector) Counts() map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Resolve turns a decided fault into the error a sim-clock (non-sleeping)
// proxy should return: Timeout becomes context.DeadlineExceeded (the call
// "hung" until its deadline), Latency passes through when the remaining
// context budget covers it and times out otherwise, and None returns nil.
func (f Fault) Resolve(ctx context.Context) error {
	switch f.Kind {
	case None:
		return nil
	case Timeout:
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.DeadlineExceeded
	case Latency:
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < f.Latency {
			return context.DeadlineExceeded
		}
		return nil
	default:
		return f.Err
	}
}

// RoundTripper is the HTTP proxy layer: it injects the decided fault ahead
// of the real transport, so any httpapi client can be pointed at a flaky
// network without touching the server.
type RoundTripper struct {
	// Base performs the real request (default http.DefaultTransport).
	Base http.RoundTripper
	// Injector decides the fault per request (required).
	Injector *Injector
}

// RoundTrip implements http.RoundTripper. Timeout faults genuinely block
// until the request's context ends; Latency faults sleep (honoring the
// context) before forwarding.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	base := rt.Base
	if base == nil {
		base = http.DefaultTransport
	}
	f := rt.Injector.Decide()
	switch f.Kind {
	case None:
		return base.RoundTrip(req)
	case Timeout:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case Latency:
		t := time.NewTimer(f.Latency)
		defer t.Stop()
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-t.C:
		}
		return base.RoundTrip(req)
	default:
		return nil, f.Err
	}
}

// CloseIdleConnections forwards to Base so http.Client.CloseIdleConnections
// still reaches the real transport through the injector — without this, a
// wrapped client can never drain its keep-alive connections (and their
// per-connection goroutines) on shutdown.
func (rt *RoundTripper) CloseIdleConnections() {
	base := rt.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if c, ok := base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}
