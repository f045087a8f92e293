// Package libaequus is the unified system library resource management
// systems link against to obtain global fairshare functionality (Section
// III-A). It wraps clients for the FCS (fairshare values), IRS (identity
// mappings) and USS (usage reporting), and caches resolved fairshare values
// and identities for a configurable time — "which considerably reduces the
// amount of network traffic and computations required when batches of jobs
// are submitted and processed at the same time". The cache TTL is update
// delay component (III) in the paper's delay analysis.
package libaequus

import (
	"context"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/wire"
)

// FairshareSource provides pre-calculated fairshare values (the FCS, either
// in-process or over HTTP): one user at a time, or many at once.
type FairshareSource interface {
	Priority(gridUser string) (wire.FairshareResponse, error)
	BatchFairshareSource
}

// BatchFairshareSource resolves many users against one fairshare snapshot
// in one round trip. fcs.Service and httpapi.Client implement it.
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
	fcs FairshareSource
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
func New(cfg Config, fcs FairshareSource, irs IdentitySource, uss UsageSink) *Client {
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

// staleFairshare serves an expired cache entry after a source failure when
// StaleIfError allows it.
func (c *Client) staleFairshare(gridUser string) (wire.FairshareResponse, bool) {
	if !c.cfg.StaleIfError {
		return wire.FairshareResponse{}, false
	}
	c.mu.Lock()
	e, ok := c.fairshare[gridUser]
	if ok {
		c.stats.FairshareStale++
	}
	c.mu.Unlock()
	if ok {
		c.mStale.With("fairshare").Inc()
	}
	return e.resp, ok
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

// Fairshare returns the global fairshare response for a grid user, cached.
func (c *Client) Fairshare(gridUser string) (wire.FairshareResponse, error) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	e, ok := c.fairshare[gridUser]
	if ok && now.Sub(e.at) < c.cfg.CacheTTL {
		c.stats.FairshareHits++
		c.mu.Unlock()
		c.mHits.With("fairshare").Inc()
		return e.resp, nil
	}
	if ok {
		c.stats.FairshareExpiries++
	}
	c.stats.FairshareMisses++
	c.mu.Unlock()
	c.mMisses.With("fairshare").Inc()

	_, sp := span.Start(span.WithRecorder(context.Background(), c.cfg.Spans),
		"lib.fairshare_fetch")
	sp.SetAttr("user", gridUser)
	var resp wire.FairshareResponse
	err := c.retry(func() error {
		r, err := c.fcs.Priority(gridUser)
		resp = r
		return err
	})
	sp.SetErr(err)
	sp.End()
	if err != nil {
		if stale, ok := c.staleFairshare(gridUser); ok {
			return stale, nil
		}
		return wire.FairshareResponse{}, err
	}
	c.noteSnapshotAge(resp.ComputedAt)
	c.mu.Lock()
	c.fairshare[gridUser] = cachedValue{resp: resp, at: now}
	c.mu.Unlock()
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
	queued := map[string]bool{}
	var hits int
	c.mu.Lock()
	for _, u := range gridUsers {
		if _, done := out[u]; done || queued[u] {
			continue
		}
		e, ok := c.fairshare[u]
		if ok && now.Sub(e.at) < c.cfg.CacheTTL {
			c.stats.FairshareHits++
			hits++
			out[u] = e.resp
			continue
		}
		if ok {
			c.stats.FairshareExpiries++
		}
		c.stats.FairshareMisses++
		queued[u] = true
		misses = append(misses, u)
	}
	c.mu.Unlock()
	c.mHits.With("fairshare").Add(float64(hits))
	c.mMisses.With("fairshare").Add(float64(len(misses)))
	if len(misses) == 0 {
		return out, nil
	}
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
	return out, nil
}

// staleBatch completes a failed batch fetch from expired cache entries. The
// fallback only succeeds when every outstanding user has some cached value —
// a partially answerable batch still fails, so a caller never mistakes a
// half-empty map for "those users are unknown to the policy".
func (c *Client) staleBatch(out map[string]wire.FairshareResponse, misses []string, err error) (map[string]wire.FairshareResponse, error) {
	if !c.cfg.StaleIfError {
		return nil, err
	}
	c.mu.Lock()
	served := 0
	for _, u := range misses {
		if _, done := out[u]; done {
			continue
		}
		e, ok := c.fairshare[u]
		if !ok {
			c.mu.Unlock()
			return nil, err
		}
		out[u] = e.resp
		served++
	}
	c.stats.FairshareStale += served
	c.mu.Unlock()
	c.mStale.With("fairshare").Add(float64(served))
	return out, nil
}

// PrioritiesForLocalUsers is the batch scheduler call-out: it resolves each
// local account to a grid identity (cached) and fetches all fairshare
// values in one batch, returning projected priorities keyed by local user.
// Accounts that fail identity resolution or are unknown to the policy are
// absent from the result.
func (c *Client) PrioritiesForLocalUsers(localUsers []string) (map[string]float64, error) {
	grid := make(map[string]string, len(localUsers)) // local -> grid
	var gridUsers []string
	seen := map[string]bool{}
	for _, lu := range localUsers {
		if _, done := grid[lu]; done {
			continue
		}
		g, err := c.ResolveGridID(lu)
		if err != nil {
			continue
		}
		grid[lu] = g
		if !seen[g] {
			seen[g] = true
			gridUsers = append(gridUsers, g)
		}
	}
	vals, err := c.FairshareBatch(gridUsers)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(grid))
	for lu, g := range grid {
		if resp, ok := vals[g]; ok {
			out[lu] = resp.Value
		}
	}
	return out, nil
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
