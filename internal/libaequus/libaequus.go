// Package libaequus is the unified system library resource management
// systems link against to obtain global fairshare functionality (Section
// III-A). It wraps clients for the FCS (fairshare values), IRS (identity
// mappings) and USS (usage reporting), and caches resolved fairshare values
// and identities for a configurable time — "which considerably reduces the
// amount of network traffic and computations required when batches of jobs
// are submitted and processed at the same time". The cache TTL is update
// delay component (III) in the paper's delay analysis. Every fairshare miss,
// a single call-out's or a whole queue's, takes one path: one batch round
// trip to the FCS, traced as "lib.cache_fill".
package libaequus

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/wire"
)

// FairshareSource provides pre-calculated fairshare values (the FCS, either
// in-process or over HTTP): one user at a time, or many at once. libaequus
// asks only the batch half.
type FairshareSource interface {
	Priority(gridUser string) (wire.FairshareResponse, error)
	BatchFairshareSource
}

// BatchFairshareSource resolves many users against one fairshare snapshot
// in one round trip: libaequus's one way to the FCS. fcs.Service and
// httpapi.Client implement it.
type BatchFairshareSource interface {
	PriorityBatch(gridUsers []string) (wire.FairshareBatchResponse, error)
}

// IdentitySource reverts local accounts to grid identities (the IRS).
type IdentitySource interface {
	Resolve(site, localUser string) (string, error)
}

// UsageSink receives job-completion usage reports (the USS).
type UsageSink interface {
	ReportJob(gridUser string, start time.Time, dur time.Duration, procs int)
}

// Config configures a libaequus client.
type Config struct {
	// Site is the local site name used in identity resolution.
	Site string
	// CacheTTL bounds how long fairshare values and identity mappings are
	// reused without consulting the services.
	CacheTTL time.Duration
	// Clock provides time (default wall clock).
	Clock simclock.Clock
	// Metrics receives the cache instruments (default registry if nil).
	Metrics *telemetry.Registry
	// Retry bounds transient-failure retries of source lookups (fairshare,
	// identity). The zero value performs exactly one attempt. Usage reports
	// are never retried here — they are not idempotent.
	Retry resilience.RetryPolicy
	// StaleIfError, when set, serves expired cache entries when the source
	// is unreachable after retries: a scheduler keeps prioritizing on the
	// last known fairshare values instead of failing, trading staleness for
	// availability (the same degradation the paper accepts for partial
	// exchanges). Stale serves are counted in Stats and
	// aequus_lib_stale_served_total.
	StaleIfError bool
	// Spans receives cache-fill trace spans (nil disables tracing). Cache
	// hits are never traced — they stay a mutex-guarded map lookup.
	Spans *span.Recorder
}

// Client is a libaequus instance. It is safe for concurrent use by a
// multi-threaded scheduler.
type Client struct {
	cfg Config
	fcs BatchFairshareSource
	irs IdentitySource
	uss UsageSink

	mu        sync.Mutex
	fairshare map[string]cachedValue // grid user -> value
	ids       map[string]cachedID    // local user -> grid id
	stats     Stats

	mHits    *telemetry.CounterVec
	mMisses  *telemetry.CounterVec
	mStale   *telemetry.CounterVec
	mSnapAge *telemetry.Gauge
}

type cachedValue struct {
	resp wire.FairshareResponse
	at   time.Time
}

type cachedID struct {
	grid string
	at   time.Time
}

// Stats counts cache behaviour, useful for the cache-TTL ablation. An
// expiry is a miss whose entry existed but had outlived the TTL (every
// expiry is also counted as a miss).
type Stats struct {
	FairshareHits, FairshareMisses, FairshareExpiries int
	IdentityHits, IdentityMisses, IdentityExpiries    int
	// FairshareStale and IdentityStale count expired entries served because
	// the source was unreachable (Config.StaleIfError).
	FairshareStale, IdentityStale int
	UsageReports                  int
}

// New creates a client. Any source may be nil if unused (e.g. a pure
// reporting integration needs only the USS).
func New(cfg Config, fcs BatchFairshareSource, irs IdentitySource, uss UsageSink) *Client {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	reg := telemetry.OrDefault(cfg.Metrics)
	return &Client{
		cfg:       cfg,
		fcs:       fcs,
		irs:       irs,
		uss:       uss,
		fairshare: map[string]cachedValue{},
		ids:       map[string]cachedID{},
		mHits: reg.CounterVec("aequus_lib_cache_hits_total",
			"libaequus cache hits, by cache (fairshare or identity).", "cache"),
		mMisses: reg.CounterVec("aequus_lib_cache_misses_total",
			"libaequus cache misses, by cache (fairshare or identity).", "cache"),
		mStale: reg.CounterVec("aequus_lib_stale_served_total",
			"Expired libaequus cache entries served because the source was unreachable, by cache.", "cache"),
		mSnapAge: reg.Gauge("aequus_lib_snapshot_age_seconds",
			"Age of the fairshare snapshot behind the last value fetched from the source."),
	}
}

// noteSnapshotAge records how old the fairshare snapshot behind a fetched
// value was — the end-to-end update delay a scheduler actually observes.
func (c *Client) noteSnapshotAge(computedAt time.Time) {
	if computedAt.IsZero() {
		return
	}
	c.mSnapAge.Set(c.cfg.Clock.Now().Sub(computedAt).Seconds())
}

// retry runs fn under the configured retry policy (a zero policy performs
// exactly one attempt).
func (c *Client) retry(fn func() error) error {
	return c.cfg.Retry.Do(context.Background(), func(context.Context) error { return fn() })
}

// ResolveGridID maps a local system user to its grid identity, caching the
// result.
func (c *Client) ResolveGridID(localUser string) (string, error) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	e, ok := c.ids[localUser]
	if ok && now.Sub(e.at) < c.cfg.CacheTTL {
		c.stats.IdentityHits++
		c.mu.Unlock()
		c.mHits.With("identity").Inc()
		return e.grid, nil
	}
	if ok {
		c.stats.IdentityExpiries++
	}
	c.stats.IdentityMisses++
	c.mu.Unlock()
	c.mMisses.With("identity").Inc()

	var grid string
	err := c.retry(func() error {
		g, err := c.irs.Resolve(c.cfg.Site, localUser)
		grid = g
		return err
	})
	if err != nil {
		// Identity mappings essentially never change mid-outage: the expired
		// entry is almost certainly still right.
		if ok && c.cfg.StaleIfError {
			c.mu.Lock()
			c.stats.IdentityStale++
			c.mu.Unlock()
			c.mStale.With("identity").Inc()
			return e.grid, nil
		}
		return "", err
	}
	c.mu.Lock()
	c.ids[localUser] = cachedID{grid: grid, at: now}
	c.mu.Unlock()
	return grid, nil
}

// ErrUnknownUser is returned for a grid user the policy does not know.
var ErrUnknownUser = errors.New("libaequus: user not in policy")

// Fairshare returns the global fairshare response for a grid user, cached.
// A miss is a one-user batch: it takes the one miss path, fill.
func (c *Client) Fairshare(gridUser string) (wire.FairshareResponse, error) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	resp, hit := c.cachedLocked(now, gridUser)
	c.mu.Unlock()
	if hit {
		c.mHits.With("fairshare").Inc()
		return resp, nil
	}
	out := make(map[string]wire.FairshareResponse, 1)
	if err := c.fill(now, out, []string{gridUser}, 0); err != nil {
		return wire.FairshareResponse{}, err
	}
	resp, ok := out[gridUser]
	if !ok {
		return wire.FairshareResponse{}, ErrUnknownUser
	}
	return resp, nil
}

// FairshareBatch returns fairshare responses for many grid users at once:
// cached entries are served locally, and all misses are fetched in a single
// round trip, then filled into the per-user cache. Users unknown to
// the policy are simply absent from the result map. This is how a resource
// manager reprioritizes a whole queue without N network round trips.
func (c *Client) FairshareBatch(gridUsers []string) (map[string]wire.FairshareResponse, error) {
	now := c.cfg.Clock.Now()
	out := make(map[string]wire.FairshareResponse, len(gridUsers))
	var misses []string
	var queued map[string]bool // a warm batch allocates neither
	var hits int
	c.mu.Lock()
	for i, u := range gridUsers {
		if _, done := out[u]; done || queued[u] {
			continue
		}
		if resp, hit := c.cachedLocked(now, u); hit {
			hits++
			out[u] = resp
			continue
		}
		if queued == nil {
			// Sized once, for every user still to scan missing.
			misses = make([]string, 0, len(gridUsers)-i)
			queued = make(map[string]bool, len(gridUsers)-i)
		}
		queued[u] = true
		misses = append(misses, u)
	}
	c.mu.Unlock()
	c.mHits.With("fairshare").Add(float64(hits))
	if len(misses) == 0 {
		return out, nil
	}
	if err := c.fill(now, out, misses, hits); err != nil {
		return nil, err
	}
	return out, nil
}

// cachedLocked serves a grid user's entry if it is younger than the TTL at
// now, counting the hit; otherwise it counts a miss, and an expiry if the
// entry outlived the TTL. Callers hold c.mu.
func (c *Client) cachedLocked(now time.Time, gridUser string) (wire.FairshareResponse, bool) {
	e, ok := c.fairshare[gridUser]
	if ok && now.Sub(e.at) < c.cfg.CacheTTL {
		c.stats.FairshareHits++
		return e.resp, true
	}
	if ok {
		c.stats.FairshareExpiries++
	}
	c.stats.FairshareMisses++
	return wire.FairshareResponse{}, false
}

// fill is the one miss path: it fetches misses (distinct users, none of them
// in out) in one retried PriorityBatch, caches every answer as of now and
// adds it to out. A user the policy does not know is absent from the answer
// and so from out. When the source fails, staleBatch may complete out from
// expired entries instead. hits only labels the span.
func (c *Client) fill(now time.Time, out map[string]wire.FairshareResponse, misses []string, hits int) error {
	c.mMisses.With("fairshare").Add(float64(len(misses)))
	_, sp := span.Start(span.WithRecorder(context.Background(), c.cfg.Spans),
		"lib.cache_fill")
	sp.SetAttr("cache", "fairshare")
	sp.SetAttrInt("hits", int64(hits))
	sp.SetAttrInt("misses", int64(len(misses)))
	defer sp.End()
	var resp wire.FairshareBatchResponse
	err := c.retry(func() error {
		r, err := c.fcs.PriorityBatch(misses)
		resp = r
		return err
	})
	if err != nil {
		sp.SetErr(err)
		return c.staleBatch(out, misses, err)
	}
	c.noteSnapshotAge(resp.ComputedAt)
	c.mu.Lock()
	for _, e := range resp.Entries {
		c.fairshare[e.User] = cachedValue{resp: e, at: now}
		out[e.User] = e
	}
	c.mu.Unlock()
	return nil
}

// staleBatch completes a failed fill from expired cache entries. The
// fallback only succeeds when every missed user has some cached value — a
// partially answerable batch still fails, so a caller never mistakes a
// half-empty map for "those users are unknown to the policy".
func (c *Client) staleBatch(out map[string]wire.FairshareResponse, misses []string, err error) error {
	if !c.cfg.StaleIfError {
		return err
	}
	c.mu.Lock()
	for _, u := range misses {
		e, ok := c.fairshare[u]
		if !ok {
			c.mu.Unlock()
			return err
		}
		out[u] = e.resp
	}
	c.stats.FairshareStale += len(misses)
	c.mu.Unlock()
	c.mStale.With("fairshare").Add(float64(len(misses)))
	return nil
}

// PriorityForLocalUser is the scheduler call-out: it resolves the local
// account to a grid identity and returns the projected fairshare priority in
// [0,1] — the value that replaces the local fairshare factor in SLURM's
// multifactor plugin and Maui's patched priority calculation.
func (c *Client) PriorityForLocalUser(localUser string) (float64, error) {
	grid, err := c.ResolveGridID(localUser)
	if err != nil {
		return 0, err
	}
	resp, err := c.Fairshare(grid)
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// JobComplete is the job-completion call-out: it reports the finished job's
// usage to the USS under the owner's grid identity.
func (c *Client) JobComplete(localUser string, start time.Time, dur time.Duration, procs int) error {
	grid, err := c.ResolveGridID(localUser)
	if err != nil {
		return err
	}
	if c.uss != nil {
		c.uss.ReportJob(grid, start, dur, procs)
	}
	c.mu.Lock()
	c.stats.UsageReports++
	c.mu.Unlock()
	return nil
}

// FlushCaches drops all cached values (used when an administrator changes
// policy and wants immediate effect).
func (c *Client) FlushCaches() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fairshare = map[string]cachedValue{}
	c.ids = map[string]cachedID{}
}

// Stats returns a snapshot of cache statistics.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
