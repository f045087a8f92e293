// Package faultinject is the deterministic fault-injection harness behind
// the chaos tests: an Injector evaluates a schedule of fault windows against
// a (usually simulated) clock and a seeded PRNG, and an http.RoundTripper
// consults it on every request to decide whether to fail it with an error,
// a timeout, a connection reset, or probabilistic flapping.
//
// Everything is deterministic given the same clock readings and seed, which
// is what lets CI assert exact convergence behaviour ("priorities equal the
// fault-free fixture two rounds after the faults clear") instead of eyeball
// flakiness. No fault waits on the wall clock.
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
	// Timeout: the call fails at once with the error of a call that hung
	// until its deadline — the hung-peer scenario without the wait.
	Timeout
	// Reset: the call fails with a connection-reset network error.
	Reset
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
}

func (w Window) active(now time.Time) bool {
	if !w.From.IsZero() && now.Before(w.From) {
		return false
	}
	return w.Until.IsZero() || now.Before(w.Until)
}

// Fault is one decided injection.
type Fault struct {
	Kind Kind
	Err  error
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
		f := Fault{Kind: w.Kind}
		switch w.Kind {
		case None:
			return Fault{}
		case Flap:
			if in.rng.Float64() >= w.Rate {
				return Fault{}
			}
			f.Kind = Error // a flap that fires is an error fault
			f.Err = fmt.Errorf("faultinject: flapping peer (window %v–%v)", w.From, w.Until)
		case Error:
			f.Err = fmt.Errorf("faultinject: injected error (window %v–%v)", w.From, w.Until)
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

// Resolve turns a decided fault into the error the call returns: Timeout
// becomes ctx's error, or context.DeadlineExceeded while ctx is live (the
// call "hung" until its deadline), and None returns nil.
func (f Fault) Resolve(ctx context.Context) error {
	switch f.Kind {
	case None:
		return nil
	case Timeout:
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.DeadlineExceeded
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

// RoundTrip implements http.RoundTripper: a faulted request fails with
// Resolve's error before it reaches Base.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := rt.Injector.Decide().Resolve(req.Context()); err != nil {
		return nil, err
	}
	return rt.base().RoundTrip(req)
}

// CloseIdleConnections forwards to Base so http.Client.CloseIdleConnections
// still reaches the real transport through the injector — without this, a
// wrapped client can never drain its keep-alive connections (and their
// per-connection goroutines) on shutdown.
func (rt *RoundTripper) CloseIdleConnections() {
	if c, ok := rt.base().(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (rt *RoundTripper) base() http.RoundTripper {
	if rt.Base == nil {
		return http.DefaultTransport
	}
	return rt.Base
}
