package resilience

import (
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// State is a circuit breaker's position. The numeric values are what the
// aequus_peer_circuit_state gauge exposes.
type State int

// Breaker states.
const (
	// Closed: calls flow normally; consecutive failures are counted.
	Closed State = 0
	// Open: calls are rejected without dialing until the cooldown elapses.
	Open State = 1
	// HalfOpen: one probe call at a time is let through; success closes the
	// breaker, failure re-opens it.
	HalfOpen State = 2
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Default breaker parameters, used when the corresponding BreakerConfig
// field is zero.
const (
	DefaultBreakerCooldown = 30 * time.Second
)

// BreakerConfig parameterizes circuit breakers. A zero Threshold disables
// breaking entirely (BreakerSet.For returns nil, and every method of a nil
// *Breaker behaves as "always closed"), so the config can be plumbed through
// unconditionally.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker open (<= 0 disables the breaker).
	Threshold int
	// Cooldown is how long an open breaker rejects calls before allowing a
	// half-open probe (default 30s).
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes close a
	// half-open breaker (default 1).
	HalfOpenProbes int
	// Clock provides time for the cooldown (default wall clock; the testbed
	// passes its sim clock so chaos runs stay deterministic).
	Clock simclock.Clock
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	if c.HalfOpenProbes < 1 {
		c.HalfOpenProbes = 1
	}
	if c.Clock == nil {
		c.Clock = simclock.Real{}
	}
	return c
}

// Breaker is one peer's circuit breaker. All methods are safe for concurrent
// use, and safe on a nil receiver (a nil breaker is permanently closed — the
// disabled case).
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     State
	fails     int // consecutive failures while closed
	successes int // consecutive probe successes while half-open
	inflight  bool
	openedAt  time.Time
	lastErr   error

	stateG  *telemetry.Gauge
	trips   *telemetry.Counter
	rejects *telemetry.Counter
}

// NewBreaker creates a standalone breaker named name (the "peer" metric
// label), registering its instruments on reg. Returns nil when cfg disables
// breaking.
func NewBreaker(name string, cfg BreakerConfig, reg *telemetry.Registry) *Breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	reg = telemetry.OrDefault(reg)
	return &Breaker{
		cfg: cfg.withDefaults(),
		stateG: reg.GaugeVec("aequus_peer_circuit_state",
			"Per-peer circuit breaker state (0=closed, 1=open, 2=half-open).",
			"peer").With(name),
		trips: reg.CounterVec("aequus_peer_circuit_trips_total",
			"Circuit breaker transitions to open, by peer.", "peer").With(name),
		rejects: reg.CounterVec("aequus_peer_circuit_rejected_total",
			"Calls rejected without dialing because the breaker was open, by peer.",
			"peer").With(name),
	}
}

// Allow reports whether a call may proceed, transitioning open→half-open
// once the cooldown has elapsed. Every allowed call must be matched by one
// Success or Failure.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.setState(HalfOpen)
			b.successes = 0
			b.inflight = true
			return true
		}
		b.rejects.Inc()
		return false
	default: // HalfOpen: one probe at a time.
		if b.inflight {
			b.rejects.Inc()
			return false
		}
		b.inflight = true
		return true
	}
}

// Success records a successful call.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails = 0
	case HalfOpen:
		b.inflight = false
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			b.setState(Closed)
			b.fails = 0
			b.lastErr = nil
		}
	}
	// A success landing while Open (a call that started before the trip)
	// carries no signal about current peer health; ignore it.
}

// Failure records a failed call, tripping the breaker when the consecutive-
// failure threshold is reached (immediately, in half-open).
func (b *Breaker) Failure(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = err
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	case HalfOpen:
		b.inflight = false
		b.trip()
	}
}

// trip opens the breaker; b.mu must be held.
func (b *Breaker) trip() {
	b.setState(Open)
	b.openedAt = b.cfg.Clock.Now()
	b.fails = 0
	b.trips.Inc()
}

// setState records a transition and updates the state gauge; b.mu must be
// held.
func (b *Breaker) setState(s State) {
	b.state = s
	b.stateG.Set(float64(s))
}

// State returns the current state (Closed for a nil breaker). It does not
// perform the open→half-open transition; Allow does.
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// LastError returns the most recent failure recorded (nil for a nil or
// healthy breaker).
func (b *Breaker) LastError() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// BreakerSet lazily creates one Breaker per peer name, all sharing one
// config and telemetry registry — the per-peer breaker map guarding a
// fan-out like the USS exchange round.
type BreakerSet struct {
	cfg BreakerConfig
	reg *telemetry.Registry

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet creates a set. Returns nil when cfg disables breaking, and a
// nil set hands out nil (always-closed) breakers, so callers never branch.
func NewBreakerSet(cfg BreakerConfig, reg *telemetry.Registry) *BreakerSet {
	if cfg.Threshold <= 0 {
		return nil
	}
	return &BreakerSet{cfg: cfg, reg: telemetry.OrDefault(reg), m: map[string]*Breaker{}}
}

// For returns the breaker for the named peer, creating it on first use.
func (s *BreakerSet) For(name string) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = NewBreaker(name, s.cfg, s.reg)
		s.m[name] = b
	}
	return b
}
