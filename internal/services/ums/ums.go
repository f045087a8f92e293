// Package ums implements the Usage Monitoring Service: it follows the usage
// of one Usage Statistics Service (which already combines the sites it
// exchanges with) and pre-computes per-user usage values ("usage trees"), so
// the Fairshare Calculation Service never touches raw job data.
package ums

import (
	"context"
	"strconv"
	"sync"
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
	// Clock provides time (default wall clock).
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

	// mu guards the cache fields and the in-flight latch. It is never held
	// across a source call: recomputation runs outside the lock, so
	// ComputedAt (and therefore /readyz) stays responsive while a slow or
	// hanging USS is being queried.
	mu       sync.Mutex
	cachedAt time.Time
	valid    bool
	// inflight is non-nil while one source pass or one materialisation of
	// complete sums runs; it is closed when that finishes. Concurrent
	// readers that need its outcome wait on it instead of launching
	// duplicates (single-flight, mirroring the FCS refresh discipline).
	inflight    chan struct{}
	inflightErr error // outcome of the last finished flight, for waiters
	// gen is bumped by Invalidate; a pass that started before the bump
	// publishes its generation but leaves the cache invalid.
	gen uint64

	// version is the delta watermark: it advances whenever a pass publishes
	// values that differ (bitwise) from the previous ones; 0 until the
	// first publish. deltaLog holds the most recent generations (oldest
	// first, versions consecutive).
	version  uint64
	deltaLog []deltaGen
	// full is the complete per-user map of `version`: materialised from
	// the source when a consumer needs complete sums (or handed over with a
	// Full set that carried them) and dropped when the next generation
	// lands, so no population-sized map outlives the refresh that asked
	// for it.
	full map[string]float64
	// scale and reference describe the current generation's values as in
	// usage.DeltaSet.
	scale     float64
	reference time.Time

	mRecomputes   *telemetry.Counter
	mRecomputeDur *telemetry.Histogram
}

// deltaGen is one published generation in the bounded delta log.
type deltaGen struct {
	version uint64
	// changed maps users whose values changed in this generation to their
	// new absolute values. Nil marks a "full" generation — the first
	// publish, a source whose cursor was reset, or a change too large for a
	// delta to pay off — which forces consumers whose watermark predates it
	// to a full rebuild.
	changed map[string]float64
}

// maxDeltaGens bounds the delta log: a consumer whose watermark has fallen
// further behind than this many publishes gets a full set instead. Eight
// generations cover several missed refresh intervals without letting a
// stalled consumer pin unbounded per-generation maps (publishLocked also
// bounds the log's total entries).
const maxDeltaGens = 8

// New creates a UMS following src.
func New(cfg Config, src Source) *Service {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Decay == nil {
		cfg.Decay = usage.None{}
	}
	reg := telemetry.OrDefault(cfg.Metrics)
	return &Service{
		cfg: cfg, src: src,
		mRecomputes: reg.Counter("aequus_ums_recomputes_total",
			"Decayed usage-tree recomputations performed."),
		mRecomputeDur: reg.Histogram("aequus_ums_recompute_duration_seconds",
			"Wall-clock duration of one pass over the usage source.",
			telemetry.DefBuckets()),
	}
}

// UsageTotals returns the pre-computed per-user decayed usage — decayed
// core-seconds at the returned instant, whatever scale the pipeline carries
// internally — recomputing when the cache has expired. The returned map is
// a copy.
//
// Recomputation is single-flight and runs outside the service mutex: of any
// number of concurrent stale readers, exactly one goes to the source while
// the rest wait for that flight and adopt its result — a slow source delays
// only the callers that need fresh data, never ComputedAt or cache hits.
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

// UsageDeltas returns the set of users whose usage changed since the given
// version watermark, recomputing first when the cache is stale (same TTL
// and single-flight discipline as UsageTotals). Pass since=0 (or any
// uncovered watermark) to receive complete totals with Full set: that never
// costs another source pass, a repeated call is served from the same map,
// and it leaves every other consumer's watermark alone. Values are in the
// set's Scale (see usage.DeltaSet); the returned maps reference internal
// state and must be treated as read-only.
func (s *Service) UsageDeltas(since uint64) (usage.DeltaSet, error) {
	ds, _, err := s.deltas(since)
	return ds, err
}

// deltas serves UsageDeltas and also reports the instant of the generation
// it served.
func (s *Service) deltas(since uint64) (usage.DeltaSet, time.Time, error) {
	for {
		now := s.cfg.Clock.Now()
		s.mu.Lock()
		if !s.valid || now.Sub(s.cachedAt) >= s.cfg.CacheTTL {
			if s.inflight != nil {
				// Adopt the flight's publish even when it is already at
				// the TTL edge (e.g. CacheTTL=0): it was computed while we
				// waited, which is as fresh as a pass of our own.
				before := s.cachedAt
				if err := s.awaitFlightLocked(); err != nil {
					s.mu.Unlock()
					return usage.DeltaSet{}, time.Time{}, err
				}
				if !s.valid || s.cachedAt.Equal(before) {
					s.mu.Unlock()
					continue // invalidated under us, or not a source pass
				}
			} else if err := s.recomputeLocked(now); err != nil {
				s.mu.Unlock()
				return usage.DeltaSet{}, time.Time{}, err
			}
			// The owner of a pass is served its own generation even when
			// an Invalidate raced it; later readers recompute.
		}
		ds := s.deltasLocked(since)
		if ds.Full && s.full == nil {
			if s.inflight != nil {
				_ = s.awaitFlightLocked()
				s.mu.Unlock()
				continue
			}
			if !s.materializeLocked() {
				s.mu.Unlock()
				continue
			}
		}
		if ds.Full {
			ds.Totals = s.full
		}
		at := s.cachedAt
		s.mu.Unlock()
		return ds, at, nil
	}
}

// awaitFlightLocked waits for the flight in progress and returns its error.
// mu is held on entry and on return, released in between.
func (s *Service) awaitFlightLocked() error {
	ch := s.inflight
	s.mu.Unlock()
	<-ch
	s.mu.Lock()
	return s.inflightErr
}

// recomputeLocked runs one single-flight pass over the source and publishes
// its generation. It must be called with mu held and no flight in
// progress; mu is released during the pass and held again on return.
func (s *Service) recomputeLocked(now time.Time) error {
	ch := make(chan struct{})
	s.inflight = ch
	gen := s.gen
	s.mu.Unlock()

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

	s.mu.Lock()
	s.inflight = nil
	s.inflightErr = err
	if err == nil {
		// The generation is published even when an Invalidate arrived
		// mid-flight — the source's change cursor has moved past it, so
		// dropping it would lose those changes — but the cache stays
		// invalid and the next reader runs another pass.
		s.publishLocked(got, now)
		s.valid = gen == s.gen
	}
	close(ch)
	if err != nil {
		return err
	}
	s.mRecomputes.Inc()
	s.mRecomputeDur.Observe(time.Since(started).Seconds())
	return nil
}

// publishLocked records the generation a pass produced. Caller holds mu.
func (s *Service) publishLocked(got usage.DeltaSet, now time.Time) {
	changed, full := got.Changed, got.Full || s.version == 0
	if full || len(changed) > 0 {
		s.version++
		g := deltaGen{version: s.version}
		if !full && usage.DeltaPays(len(changed), got.Users) {
			g.changed = changed
		}
		s.deltaLog = append(s.deltaLog, g)
		// Besides the generation bound, the log keeps no more entries than
		// a merged delta may have and still pay off: a consumer further
		// behind than that is better served by a full set anyway.
		entries := 0
		for _, g := range s.deltaLog {
			entries += len(g.changed)
		}
		drop := 0
		for n := len(s.deltaLog); n-drop > maxDeltaGens || (n-drop > 1 && !usage.DeltaPays(entries, got.Users)); drop++ {
			entries -= len(s.deltaLog[drop].changed)
		}
		if drop > 0 {
			s.deltaLog = append(s.deltaLog[:0:0], s.deltaLog[drop:]...)
		}
		s.full = nil
	}
	if got.Totals != nil {
		s.full = got.Totals
	}
	s.scale, s.reference = got.Scale, got.Reference
	s.cachedAt = now
}

// materializeLocked asks the source for the complete sums of the
// current generation, as its own flight. It must be called with mu held and
// no flight in progress; mu is released while the source is read and held
// again on return. False means the source's scale moved since the pass: the
// cache is invalidated and the caller runs another one.
func (s *Service) materializeLocked() bool {
	ch := make(chan struct{})
	s.inflight = ch
	at := s.cachedAt
	s.mu.Unlock()

	_, sp := span.Start(span.WithRecorder(context.Background(), s.cfg.Spans), "ums.full_totals")
	got, ok := s.src.Sums(at)
	sp.SetAttrInt("users", int64(len(got.Totals)))
	sp.End()

	s.mu.Lock()
	s.inflight = nil
	s.inflightErr = nil
	close(ch)
	// No pass can have run meanwhile (it needs the latch), so the map
	// belongs to the current version.
	if ok {
		s.full = got.Totals
	} else {
		s.valid = false
	}
	return ok
}

// deltasLocked assembles the delta between `since` and the current version;
// a Full result carries no Totals yet. Caller holds mu.
func (s *Service) deltasLocked(since uint64) usage.DeltaSet {
	ds := usage.DeltaSet{Version: s.version, Scale: s.scale, Reference: s.reference}
	if since == s.version {
		return ds // bitwise unchanged since the consumer's watermark
	}
	// The consumer needs generations (since, version]. Versions in the log
	// are consecutive, so coverage only requires the oldest retained entry
	// to reach back to since+1.
	if since == 0 || since > s.version || len(s.deltaLog) == 0 || s.deltaLog[0].version > since+1 {
		ds.Full = true
		return ds
	}
	for i, g := range s.deltaLog {
		if g.version <= since {
			continue
		}
		if g.changed == nil { // full-generation marker
			ds.Full, ds.Changed = true, nil
			return ds
		}
		if ds.Changed == nil {
			if i == len(s.deltaLog)-1 {
				ds.Changed = g.changed // one generation behind: no copy
				break
			}
			ds.Changed = make(map[string]float64, len(g.changed))
		}
		for u, v := range g.changed {
			ds.Changed[u] = v // later generations win
		}
	}
	return ds
}

// ComputedAt reports when the cached usage tree was computed (zero if the
// cache is invalid) — the staleness input of /readyz.
func (s *Service) ComputedAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid {
		return time.Time{}
	}
	return s.cachedAt
}

// Invalidate drops the cache so the next read recomputes. A pass already in
// flight still completes and is served to its owner, but its result is not
// cached as valid.
func (s *Service) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.valid = false
	s.gen++
}

// Decay exposes the configured decay function.
func (s *Service) Decay() usage.Decay { return s.cfg.Decay }
