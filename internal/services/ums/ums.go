// Package ums implements the Usage Monitoring Service: it follows the usage
// of one Usage Statistics Service (which already combines the sites it
// exchanges with) and pre-computes per-user usage values ("usage trees"), so
// the Fairshare Calculation Service never touches raw job data.
//
// A UMS holds exactly one generation: the change set of its last source pass
// that changed anything. The source's change cursor is the change log; the
// UMS only remembers how far its consumer got.
package ums

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
)

// Source is the usage a UMS follows: a USS view, whose change cursor says
// which users' usage changed since the previous pass. Values are sums at
// the source's reference instant plus one scale (see usage.DeltaSet).
type Source interface {
	// Changes moves the source's cursor to `now` and returns what changed
	// since the previous call. A Full set may carry its complete values in
	// Totals (which then become the caller's); otherwise the caller asks
	// Sums for them when a consumer needs them.
	Changes(now time.Time, d usage.Decay) (usage.DeltaSet, error)
	// Sums returns complete per-user sums in the scale of the last Changes
	// pass, evaluated at `now`; ok is false when that scale no longer
	// holds and the next Changes will be Full.
	Sums(now time.Time) (ds usage.DeltaSet, ok bool)
}

// SourceFunc adapts a function that returns complete decayed totals — a
// test fake — to Source: every pass is a Full set in scale 1 that carries
// those totals.
type SourceFunc func(now time.Time, d usage.Decay) (map[string]float64, error)

// Changes implements Source.
func (f SourceFunc) Changes(now time.Time, d usage.Decay) (usage.DeltaSet, error) {
	totals, err := f(now, d)
	if err != nil {
		return usage.DeltaSet{}, err
	}
	if totals == nil {
		totals = map[string]float64{}
	}
	return usage.DeltaSet{Full: true, Totals: totals, Scale: 1, Users: len(totals)}, nil
}

// Sums implements Source. A function keeps nothing between passes; the
// totals of each pass already travelled with its Full set.
func (f SourceFunc) Sums(time.Time) (usage.DeltaSet, bool) { return usage.DeltaSet{}, false }

// Config configures a UMS instance.
type Config struct {
	// Decay is the usage decay function (default: no decay).
	Decay usage.Decay
	// CacheTTL is how long a pre-computed usage tree is served before
	// recomputation — one of the update-delay components (II) the paper's
	// delay experiment varies.
	CacheTTL time.Duration
	// Clock provides time (required: every caller passes its own, a site
	// its site clock).
	Clock simclock.Clock
	// Metrics receives the service's instruments (default registry if nil).
	Metrics *telemetry.Registry
	// Spans receives recompute trace spans (nil disables tracing).
	Spans *span.Recorder
}

// Service is a Usage Monitoring Service instance.
type Service struct {
	cfg Config
	src Source

	// mu serialises source passes and guards the generation below. A reader
	// that finds the cache stale runs the pass while holding it, so
	// concurrent stale readers wait for that one pass and are then served
	// from its generation.
	mu sync.Mutex
	// at is the instant of the last pass. version advances whenever a pass
	// publishes values that differ (bitwise) from the previous ones; 0
	// until the first.
	at      time.Time
	version uint64
	// changed maps the users the pass that produced `version` changed to
	// their new values, relative to version−1; nil when that pass was Full.
	changed map[string]float64
	// full is the complete per-user map of `version`: handed over with a
	// Full set that carried it, or read from the source when a consumer
	// needs complete sums, and dropped when the next generation lands, so no
	// population-sized map outlives the refresh that asked for it.
	full map[string]float64
	// scale and reference describe the generation's values as in
	// usage.DeltaSet.
	scale     float64
	reference time.Time

	// stamp holds the instant of the cached generation while it is valid and
	// a zero time otherwise. Invalidate stores a fresh pointer, so a pass
	// that began before it fails its CompareAndSwap and leaves the cache
	// invalid. ComputedAt and Invalidate never take mu.
	stamp atomic.Pointer[time.Time]

	mRecomputeDur *telemetry.Histogram
}

// New creates a UMS following src.
func New(cfg Config, src Source) *Service {
	if cfg.Decay == nil {
		cfg.Decay = usage.None{}
	}
	reg := telemetry.OrDefault(cfg.Metrics)
	s := &Service{
		cfg: cfg, src: src,
		mRecomputeDur: reg.Histogram("aequus_ums_recompute_duration_seconds",
			"Wall-clock duration of one pass over the usage source.",
			telemetry.DefBuckets()),
	}
	s.stamp.Store(new(time.Time))
	return s
}

// UsageTotals returns the pre-computed per-user decayed usage — decayed
// core-seconds at the returned instant, whatever scale the pipeline carries
// internally — recomputing when the cache has expired. The returned map is
// a copy.
//
// Of any number of concurrent stale readers, one runs the source pass and
// the rest wait for it and are served its result; a slow source delays only
// the callers that need fresh data, never ComputedAt.
func (s *Service) UsageTotals() (map[string]float64, time.Time, error) {
	ds, at, err := s.deltas(0)
	if err != nil {
		return nil, time.Time{}, err
	}
	out := make(map[string]float64, len(ds.Totals))
	for u, v := range ds.Totals {
		out[u] = v * ds.Scale
	}
	return out, at, nil
}

// UsageDeltas returns the users whose usage changed since the given version
// watermark, recomputing first when the cache is stale (same TTL and
// discipline as UsageTotals). A consumer at the current version gets an
// empty set, one a version behind gets the last pass's change set, and any
// other watermark (since=0 included) gets complete values with Full set:
// that never costs another source pass, a repeated call is served from the
// same map, and it leaves every other consumer's watermark alone. Values are
// in the set's Scale (see usage.DeltaSet); the returned maps reference
// internal state and must be treated as read-only.
func (s *Service) UsageDeltas(since uint64) (usage.DeltaSet, error) {
	ds, _, err := s.deltas(since)
	return ds, err
}

// deltas serves UsageDeltas and also reports the instant of the generation
// it served.
func (s *Service) deltas(since uint64) (usage.DeltaSet, time.Time, error) {
	before := s.stamp.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	// A pass that landed while this reader waited for mu is as fresh as a
	// pass of its own, even past the TTL (a pass slower than CacheTTL, or
	// CacheTTL=0): waiters share it instead of running one pass each.
	stamp := s.stamp.Load()
	stale := stamp.IsZero() || (stamp == before && now.Sub(*stamp) >= s.cfg.CacheTTL)
	for {
		// The pass's owner is served its generation even when an Invalidate
		// raced it; later readers recompute.
		if stale {
			if err := s.passLocked(now); err != nil {
				return usage.DeltaSet{}, time.Time{}, err
			}
		}
		ds := usage.DeltaSet{Version: s.version, Scale: s.scale, Reference: s.reference}
		switch {
		case since == s.version:
			return ds, s.at, nil // bitwise unchanged since the watermark
		case since+1 == s.version && s.changed != nil:
			ds.Changed = s.changed
			return ds, s.at, nil
		}
		if s.full == nil {
			_, sp := span.Start(span.WithRecorder(context.Background(), s.cfg.Spans), "ums.full_totals")
			got, ok := s.src.Sums(s.at)
			sp.SetAttrInt("users", int64(len(got.Totals)))
			sp.End()
			if !ok {
				// A histogram joined the source since the pass (a new
				// mirror): its next pass is Full and brings the generation
				// these sums belong to.
				stale, now = true, s.cfg.Clock.Now()
				continue
			}
			s.full = got.Totals
		}
		ds.Full, ds.Totals = true, s.full
		return ds, s.at, nil
	}
}

// passLocked runs one pass over the source and keeps its generation. Caller
// holds mu.
func (s *Service) passLocked(now time.Time) error {
	stamp := s.stamp.Load()
	started := time.Now() // wall time: the metric reports real compute cost
	_, sp := span.Start(span.WithRecorder(context.Background(), s.cfg.Spans),
		"ums.totals")
	got, err := s.src.Changes(now, s.cfg.Decay)
	sp.SetAttrInt("users", int64(got.Users))
	if err == nil {
		if got.Scale == 0 {
			got.Scale = 1
		}
		if !got.Full {
			sp.SetAttrInt("changed", int64(len(got.Changed)))
		}
		sp.SetAttr("scale", strconv.FormatFloat(got.Scale, 'g', -1, 64))
		if !got.Reference.IsZero() {
			sp.SetAttr("reference", got.Reference.UTC().Format(time.RFC3339))
		}
	}
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return err
	}

	if full := got.Full || s.version == 0; full || len(got.Changed) > 0 {
		s.version++
		s.changed, s.full = got.Changed, got.Totals
		if full {
			s.changed = nil
		}
	}
	s.at, s.scale, s.reference = now, got.Scale, got.Reference
	// The generation is kept even when an Invalidate arrived mid-pass — the
	// source's cursor has moved past those changes — but then the cache
	// stays invalid and the next reader runs another pass.
	s.stamp.CompareAndSwap(stamp, &now)
	s.mRecomputeDur.Observe(time.Since(started).Seconds())
	return nil
}

// ComputedAt reports when the cached usage tree was computed (zero if the
// cache is invalid) — the staleness input of /readyz.
func (s *Service) ComputedAt() time.Time { return *s.stamp.Load() }

// Invalidate drops the cache so the next read recomputes. A pass already in
// flight still completes and is served to its owner, but its result is not
// cached as valid.
func (s *Service) Invalidate() { s.stamp.Store(new(time.Time)) }

// Decay exposes the configured decay function.
func (s *Service) Decay() usage.Decay { return s.cfg.Decay }
