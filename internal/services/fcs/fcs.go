// Package fcs implements the Fairshare Calculation Service: it fetches
// usage trees from the UMS and policy trees from the PDS periodically, and
// pre-calculates fairshare trees with current values for all users — "this
// way, no real-time calculations need to take place when new jobs arrive".
//
// The serving path is lock-free: every pre-calculation publishes an
// immutable snapshot (tree + per-user index) through an atomic pointer, so
// Priority/Table/Tree are O(1) pointer loads and table lookups with no mutex
// and no tree walks; a pointwise projection's priority is projected from
// the one entry a lookup reads. A refresh does no per-leaf work beyond the
// dirty paths: the fairness-drift summary is computed on the first Drift()
// of a snapshot, not on publication. Staleness is handled with
// single-flight stale-while-revalidate: the first reader past the TTL kicks
// one asynchronous recomputation while every reader (including itself) keeps
// serving the previous snapshot; errors from the background refresh are
// surfaced through telemetry and LastRefreshError (wired into /readyz).
//
// Refreshes are incremental when the sources cooperate: the usage source
// hands the FCS just the users whose usage changed since the last pull — as
// sums at a reference instant, which decay does not touch, plus the one
// scale that turns them back into decayed core-seconds — and the policy
// source hands out an immutable tree, so the same pointer as the last
// snapshot's proves the tree shape is unchanged. When both hold,
// the refresh drives a persistent fairshare.Recalc engine — O(dirty·depth)
// tree work with copy-on-write structural sharing instead of a full
// O(users) rebuild — and the published snapshot is bit-identical to what a
// full recomputation would have produced. Any break in the chain (first
// refresh, policy edit, a usage source that answers Full, engine error)
// falls back to the full path and re-anchors the engine.
package fcs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/vector"
	"repro/internal/wire"
)

// PolicySource provides the current policy tree (the PDS). The same pointer
// as the snapshot's is taken as an unchanged policy, so a source must never
// mutate a tree it has handed out (a fresh copy per read keeps refreshes full).
type PolicySource interface {
	Policy() *policy.Tree
}

// UsageSource provides pre-computed per-user usage (the UMS). Concurrent
// stale readers of the UMS wait for one source pass under its mutex and
// share its generation; its readiness probe (ComputedAt) never waits for a
// pass, so an FCS rebuild stuck on a slow USS does not stall /readyz.
type UsageSource interface {
	// UsageDeltas reports which users' usage changed since a version
	// watermark, so steady-state refreshes recompute only the dirty
	// fraction of the fairshare tree; since=0, or a watermark more than one
	// generation behind, yields a Full set with complete values. The values
	// are in the set's own scale, which the snapshot records; its maps are
	// read-only (see usage.DeltaSet).
	UsageDeltas(since uint64) (usage.DeltaSet, error)
}

// DefaultCacheTTL is the snapshot lifetime used when Config.CacheTTL is
// zero. A zero TTL used to force a full recomputation on every Priority
// call — the opposite of the paper's pre-calculation discipline — so the
// zero value now means "default", and a negative TTL means "never stale"
// (refresh only via Refresh).
const DefaultCacheTTL = time.Minute

// Refresh modes reported by RefreshInfo.Mode, the
// aequus_fcs_refresh_*_total counters, and the fcs.refresh span's "mode"
// attribute.
const (
	// RefreshFull recomputed the whole tree from complete usage totals.
	RefreshFull = "full"
	// RefreshIncremental recomputed only the dirty paths via the Recalc
	// engine (a delta that changed nothing republishes the previous
	// snapshot with DirtyUsers == 0).
	RefreshIncremental = "incremental"
)

// Config configures an FCS instance.
type Config struct {
	// Fairshare parameterizes the calculation (distance weight, resolution;
	// the zero value means fairshare.DefaultConfig).
	Fairshare fairshare.Config
	// Projection collapses vectors to [0,1] priorities (default percental,
	// "the configuration currently used in production").
	Projection vector.Projection
	// CacheTTL bounds how stale the pre-calculated snapshot may be — update
	// delay component (II). Zero means DefaultCacheTTL; negative disables
	// expiry entirely (snapshots refresh only via Refresh).
	CacheTTL time.Duration
	// SynchronousRefresh makes a stale read recompute in-line before
	// serving, instead of serving the previous snapshot while one
	// background refresh runs. Deterministic sim-clock environments (the
	// testbed) want this; live services should leave it false so readers
	// never block on the UMS.
	SynchronousRefresh bool
	// Clock provides time (default wall clock).
	Clock simclock.Clock
	// Metrics receives the service's instruments (default registry if nil).
	Metrics *telemetry.Registry
	// SourceRetry bounds transient-failure retries of the UMS usage fetch
	// during a refresh (the zero value performs exactly one attempt). A
	// refresh that still fails leaves the previous snapshot serving —
	// stale-while-revalidate — so retries here only shorten how long the
	// table lags, never block readers.
	SourceRetry resilience.RetryPolicy
	// Spans receives refresh-pipeline trace spans (nil disables tracing).
	// Only the refresh path is traced; Priority/PriorityBatch stay span-free
	// so the read path remains allocation-free.
	Spans *span.Recorder
}

// snapshot is one immutable pre-calculation result. Everything reachable
// from a published snapshot is read-only, which is what makes the lock-free
// read path safe. (The wire table is materialized lazily under tableOnce —
// the only mutation, and it is idempotent and synchronized.)
type snapshot struct {
	tree  *fairshare.Tree
	index *fairshare.Index
	// pol is the policy the snapshot was computed from, kept so
	// VerifySnapshot can rebuild the full-recompute twin and so the next
	// refresh can tell an unchanged policy by its pointer.
	pol *policy.Tree
	// proj is the projection the snapshot serves. A pointwise one
	// (percental, bitwise) is applied to the entry a reader looks up; only a
	// global one (dictionary), whose ranks couple every entry, is projected
	// at publication, into prior[i] for index entry i (nil otherwise).
	proj       vector.Projection
	prior      []float64
	computedAt time.Time
	// usageScale turns the tree's Usage fields into decayed core-seconds at
	// computedAt: a delta-capable usage source hands over sums at a
	// reference instant (usageRef), which the calculation can use as they
	// are because it reads usage only as ratios within sibling groups.
	usageScale float64
	usageRef   time.Time
	// table is the wire view, assembled on first Table() call.
	tableOnce sync.Once
	table     wire.FairshareTableResponse
	// drift is the fairness-drift summary (per-leaf |usage − target| share
	// error, worst offenders first), computed on the first Drift() and
	// shared with every snapshot over the same index.
	drift *lazyDrift
}

// RefreshInfo describes the most recent successful snapshot refresh — the
// introspection record behind /debug/aequus and `aequusctl fcs`.
type RefreshInfo struct {
	// Mode is RefreshFull or RefreshIncremental.
	Mode string
	// DirtyUsers is how many leaves were recomputed: the bitwise-changed
	// users on the incremental path, the whole population on the full path.
	DirtyUsers int
	// Duration is the wall-clock cost of the refresh.
	Duration time.Duration
	// FoldDuration is an incremental refresh's engine cost (zero on a full
	// refresh): delta resolution, spine cloning and usage re-folds.
	FoldDuration time.Duration
	// PublishDuration is the cost of assembling the snapshot, which under
	// the dictionary projection includes projecting every entry (zero when a
	// no-op delta republished the previous snapshot). Pointwise priorities
	// are projected where they are read and drift when it is asked for, so
	// neither is in it.
	PublishDuration time.Duration
	// UsageScale is what the snapshot tree's Usage fields must be
	// multiplied by to read as decayed core-seconds at At; UsageReference
	// is the instant they are sums at (1 and zero without decay). See
	// usage.DeltaSet.
	UsageScale     float64
	UsageReference time.Time
	// At is when the refreshed snapshot was published (service clock).
	At time.Time
}

// Service is a Fairshare Calculation Service instance.
type Service struct {
	cfg Config // Projection is mutated under refreshMu; the rest is fixed.
	ttl time.Duration
	pds PolicySource
	ums UsageSource

	// snap is the published snapshot; nil until the first computation.
	snap atomic.Pointer[snapshot]
	// refreshMu serializes recomputation and projection changes. Readers
	// never take it once a snapshot exists.
	refreshMu sync.Mutex
	// refreshing is the single-flight latch for asynchronous refreshes.
	refreshing atomic.Bool
	// lastErr records the most recent refresh outcome (nil error = ok).
	lastErr atomic.Pointer[refreshOutcome]
	// lastRefresh records the most recent successful refresh's mode and
	// cost; nil until one succeeds.
	lastRefresh atomic.Pointer[RefreshInfo]

	// engine is the persistent incremental recomputation engine, anchored
	// on the last full rebuild; nil until the first refresh. Guarded by
	// refreshMu.
	engine *fairshare.Recalc
	// usageVersion is the delta watermark of the last refresh's usage state
	// (0 before the first). Guarded by refreshMu.
	usageVersion uint64

	mIncr        *telemetry.Counter
	mFull        *telemetry.Counter
	mRecalcDur   *telemetry.Histogram
	mDirty       *telemetry.Gauge
	mSnapAge     *telemetry.Gauge
	mStaleServes *telemetry.Counter
	mAsyncKicks  *telemetry.Counter
	mAsyncDedup  *telemetry.Counter
	mRefreshErrs *telemetry.Counter
	mDriftMax    *telemetry.Gauge
	mDriftMean   *telemetry.Gauge
}

type refreshOutcome struct{ err error }

// ErrUnknownUser is returned for users absent from the policy.
var ErrUnknownUser = errors.New("fcs: user not in policy")

// New creates an FCS.
func New(cfg Config, pds PolicySource, ums UsageSource) *Service {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Projection == nil {
		cfg.Projection = vector.Percental{}
	}
	if cfg.Fairshare == (fairshare.Config{}) {
		// Only an unset config takes the defaults whole: a k set without a
		// resolution keeps its k, and Compute fills in the resolution.
		cfg.Fairshare = fairshare.DefaultConfig()
	}
	ttl := cfg.CacheTTL
	if ttl == 0 {
		ttl = DefaultCacheTTL
	}
	reg := telemetry.OrDefault(cfg.Metrics)
	s := &Service{
		cfg: cfg, ttl: ttl, pds: pds, ums: ums,
		mIncr: reg.Counter("aequus_fcs_refresh_incremental_total",
			"Snapshot refreshes served by the incremental recalc engine."),
		mFull: reg.Counter("aequus_fcs_refresh_full_total",
			"Snapshot refreshes that recomputed the whole tree."),
		mRecalcDur: reg.Histogram("aequus_fcs_recalc_duration_seconds",
			"Wall-clock duration of one fairshare tree pre-calculation.",
			telemetry.DefBuckets()),
		mDirty: reg.Gauge("aequus_fcs_dirty_users",
			"Leaves recomputed by the last refresh (whole population on a full refresh)."),
		mSnapAge: reg.Gauge("aequus_fcs_snapshot_age_seconds",
			"Age of the published fairshare snapshot at last observation."),
		mStaleServes: reg.Counter("aequus_fcs_stale_serves_total",
			"Reads served from an expired snapshot while a refresh ran."),
		mAsyncKicks: reg.Counter("aequus_fcs_refresh_async_total",
			"Asynchronous snapshot refreshes started by stale reads."),
		mAsyncDedup: reg.Counter("aequus_fcs_refresh_dedup_total",
			"Stale-read refresh kicks suppressed by the single-flight latch."),
		mRefreshErrs: reg.Counter("aequus_fcs_refresh_errors_total",
			"Snapshot recomputations that failed."),
		mDriftMax: reg.Gauge("aequus_fcs_drift_max_ratio",
			"Largest per-user |usage share - target share| in the last snapshot."),
		mDriftMean: reg.Gauge("aequus_fcs_drift_mean_ratio",
			"Mean per-user |usage share - target share| in the last snapshot."),
	}
	// The drift gauges are read off the current snapshot at scrape time. The
	// hook holds the service weakly: a registry (the process-wide default
	// one) may outlive it, and must not keep it and its snapshot alive.
	wp := weak.Make(s)
	reg.OnScrape(func() {
		if s := wp.Value(); s != nil {
			d := s.Drift()
			s.mDriftMax.Set(d.MaxError)
			s.mDriftMean.Set(d.MeanError)
		}
	})
	return s
}

// LastRefresh reports the mode, dirty-user count, and wall-clock cost of the
// most recent successful refresh (zero value before the first one).
func (s *Service) LastRefresh() RefreshInfo {
	if ri := s.lastRefresh.Load(); ri != nil {
		return *ri
	}
	return RefreshInfo{}
}

// SetProjection switches the projection algorithm at run time (the paper:
// "the approach to use is configurable and can be changed during
// run-time"). The current tree is republished at once under the new
// projection — no UMS round trip — as a new snapshot with the same
// ComputedAt and drift; only a global projection projects every entry here.
func (s *Service) SetProjection(p vector.Projection) {
	if p == nil {
		return
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.cfg.Projection = p
	sn := s.snap.Load()
	if sn == nil {
		return
	}
	next, _ := s.buildSnapshot(sn.tree, sn.index, sn.pol, sn.computedAt, sn.drift)
	next.usageScale, next.usageRef = sn.usageScale, sn.usageRef
	s.snap.Store(next)
}

// Refresh forces recomputation of the fairshare snapshot.
func (s *Service) Refresh() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.rebuildLocked()
}

// rebuildLocked recomputes and publishes a snapshot; refreshMu must be held.
// It picks the cheapest sound path per refresh: incremental when the usage
// source supplied a delta and the policy provably did not change, full
// otherwise.
func (s *Service) rebuildLocked() error {
	// Durations are measured in wall time, not the (possibly simulated)
	// service clock: the metric reports real compute cost.
	started := time.Now()
	ctx, root := span.Start(span.WithRecorder(context.Background(), s.cfg.Spans),
		"fcs.refresh")
	defer root.End()

	prev := s.snap.Load()
	pol := s.pds.Policy()
	since := uint64(0)
	if prev != nil && s.engine != nil && pol == prev.pol {
		since = s.usageVersion
	}
	ds, err := s.fetchUsage(ctx, since)
	if err != nil {
		return s.failLocked(root, err)
	}

	incremental := since != 0 && !ds.Full
	dirty := 0
	var tree *fairshare.Tree
	var ix *fairshare.Index
	var stats fairshare.RecalcStats

	_, comp := span.Start(ctx, "fcs.compute")
	if incremental {
		t2, i2, ast, aerr := s.engine.Apply(ds.Changed)
		if aerr == nil {
			tree, ix, stats = t2, i2, ast
			dirty = stats.DirtyLeaves
			comp.SetAttrInt("dirty_leaves", int64(stats.DirtyLeaves))
			comp.SetAttrInt("cloned_nodes", int64(stats.ClonedNodes))
			comp.SetAttrInt("shared_nodes", int64(stats.SharedNodes))
			comp.SetAttrInt("fold_us", stats.FoldDuration.Microseconds())
		} else {
			// The engine refused the delta (anchor mismatch); refetch the
			// complete values and rebuild from scratch.
			comp.SetAttr("fallback", aerr.Error())
			incremental = false
			if ds, err = s.fetchUsage(ctx, 0); err != nil {
				comp.SetErr(err)
				comp.End()
				return s.failLocked(root, err)
			}
		}
	}
	if !incremental {
		tree = fairshare.Compute(pol, ds.Totals, s.cfg.Fairshare)
		ix = fairshare.NewIndex(tree)
		dirty = ix.Len()
	}
	comp.End()

	_, pub := span.Start(ctx, "fcs.publish")
	now := s.cfg.Clock.Now()
	var sn *snapshot
	var publishDur time.Duration
	if incremental && dirty == 0 && prev != nil {
		// Bitwise no-op delta: the engine handed back the previous
		// tree/index, so republish the previous snapshot's projection and
		// drift wholesale under a fresh timestamp.
		sn = &snapshot{
			tree: prev.tree, index: prev.index, pol: prev.pol,
			proj: prev.proj, prior: prev.prior, computedAt: now,
			drift: prev.drift,
		}
	} else {
		sn, publishDur = s.buildSnapshot(tree, ix, pol, now, nil)
	}
	scale := ds.Scale
	if scale == 0 {
		scale = 1 // a source that left it unset
	}
	sn.usageScale, sn.usageRef = scale, ds.Reference
	s.snap.Store(sn)
	pub.SetAttrInt("users", int64(sn.index.Len()))
	pub.End()

	// Re-anchor or advance the incremental engine. On the incremental path
	// Apply already adopted the new state.
	if !incremental {
		if s.engine == nil {
			s.engine = fairshare.NewRecalc(tree, ix)
		} else {
			s.engine.Reset(tree, ix)
		}
	}
	s.usageVersion = ds.Version

	mode := RefreshFull
	if incremental {
		mode = RefreshIncremental
	}
	root.SetAttr("mode", mode)
	root.SetAttrInt("dirty_users", int64(dirty))
	dur := time.Since(started)
	s.lastRefresh.Store(&RefreshInfo{
		Mode: mode, DirtyUsers: dirty, Duration: dur, At: now,
		FoldDuration:    stats.FoldDuration,
		PublishDuration: publishDur,
		UsageScale:      scale,
		UsageReference:  ds.Reference,
	})
	s.lastErr.Store(&refreshOutcome{nil})
	if incremental {
		s.mIncr.Inc()
	} else {
		s.mFull.Inc()
	}
	s.mDirty.Set(float64(dirty))
	s.mRecalcDur.Observe(dur.Seconds())
	s.mSnapAge.Set(0)
	return nil
}

// fetchUsage asks the usage source what changed since a version watermark
// (0: complete values), retrying transient failures as Config.SourceRetry
// allows.
func (s *Service) fetchUsage(ctx context.Context, since uint64) (ds usage.DeltaSet, err error) {
	_, fetch := span.Start(ctx, "fcs.fetch_usage")
	err = s.cfg.SourceRetry.Do(ctx, func(context.Context) error {
		var e error
		ds, e = s.ums.UsageDeltas(since)
		return e
	})
	if ds.Full {
		fetch.SetAttrInt("users", int64(len(ds.Totals)))
	} else {
		fetch.SetAttrInt("dirty_users", int64(len(ds.Changed)))
	}
	fetch.SetErr(err)
	fetch.End()
	return ds, err
}

// failLocked records a refresh failure; refreshMu must be held.
func (s *Service) failLocked(root *span.Span, err error) error {
	s.lastErr.Store(&refreshOutcome{err})
	s.mRefreshErrs.Inc()
	root.SetErr(err)
	return err
}

// buildSnapshot assembles a snapshot of tree and its index under the
// configured projection, and reports what that cost; refreshMu must be held
// (it reads cfg.Projection). drift is the summary of a snapshot over the
// same index, or nil for a fresh one. Only a global projection is projected
// here; the wire table and the drift summary wait for their first reader.
func (s *Service) buildSnapshot(tree *fairshare.Tree, ix *fairshare.Index, pol *policy.Tree, at time.Time, drift *lazyDrift) (*snapshot, time.Duration) {
	started := time.Now()
	if drift == nil {
		drift = &lazyDrift{}
	}
	p := s.cfg.Projection
	sn := &snapshot{tree: tree, index: ix, pol: pol, proj: p, computedAt: at, drift: drift}
	if _, pointwise := p.(vector.PointwiseProjection); !pointwise {
		// The map indirection collapses duplicate names to one value.
		m := p.Project(ix.Entries(), tree.Config.Resolution)
		sn.prior = make([]float64, ix.Len())
		for i := range sn.prior {
			sn.prior[i] = m[ix.User(i)]
		}
	}
	return sn, time.Since(started)
}

// value is the projected priority of index entry i, e. Percental reads the
// two path products the entry carries, which hold the bits its ProjectEntry
// folds from the paths; any other pointwise projection projects the entry,
// and a global one was projected when the snapshot was assembled.
func (sn *snapshot) value(i int, e fairshare.IndexEntry) float64 {
	switch p := sn.proj.(type) {
	case vector.Percental:
		return p.Value(e.Target, e.Actual)
	case vector.PointwiseProjection:
		return p.ProjectEntry(e.Entry, sn.tree.Config.Resolution)
	}
	return sn.prior[i]
}

// ComputedAt reports when the current snapshot was pre-calculated (zero if
// no calculation has happened yet) — the staleness input of /readyz. As a
// side effect it refreshes the snapshot-age gauge, so scraping /metrics
// alongside periodic readiness checks keeps the gauge current.
func (s *Service) ComputedAt() time.Time {
	sn := s.snap.Load()
	if sn == nil {
		return time.Time{}
	}
	s.mSnapAge.Set(s.cfg.Clock.Now().Sub(sn.computedAt).Seconds())
	return sn.computedAt
}

// LastRefreshError returns the error from the most recent snapshot
// recomputation, or nil if it succeeded (or none ran yet). /readyz uses it
// to report a failing background refresh while stale data is still served.
func (s *Service) LastRefreshError() error {
	if o := s.lastErr.Load(); o != nil {
		return o.err
	}
	return nil
}

// current returns the snapshot to serve. The hot path is one atomic load
// plus a clock read; only a cold start (no snapshot yet) ever blocks, and
// only a stale read in SynchronousRefresh mode recomputes in-line.
func (s *Service) current() (*snapshot, error) {
	sn := s.snap.Load()
	if sn == nil {
		return s.firstSnapshot()
	}
	if s.ttl > 0 && s.cfg.Clock.Now().Sub(sn.computedAt) >= s.ttl {
		if s.cfg.SynchronousRefresh {
			return s.refreshStale()
		}
		s.kickRefresh()
		s.mStaleServes.Inc()
	}
	return sn, nil
}

// firstSnapshot computes the initial snapshot; concurrent cold readers are
// collapsed onto one computation by refreshMu.
func (s *Service) firstSnapshot() (*snapshot, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if sn := s.snap.Load(); sn != nil {
		return sn, nil
	}
	if err := s.rebuildLocked(); err != nil {
		return nil, err
	}
	return s.snap.Load(), nil
}

// refreshStale recomputes a stale snapshot in-line (SynchronousRefresh
// mode), deduplicating concurrent stale readers under refreshMu.
func (s *Service) refreshStale() (*snapshot, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if sn := s.snap.Load(); sn != nil && s.cfg.Clock.Now().Sub(sn.computedAt) < s.ttl {
		return sn, nil
	}
	if err := s.rebuildLocked(); err != nil {
		return nil, err
	}
	return s.snap.Load(), nil
}

// kickRefresh starts one background recomputation; concurrent stale readers
// that lose the latch race return immediately (their read is served from
// the previous snapshot — stale-while-revalidate).
func (s *Service) kickRefresh() {
	if !s.refreshing.CompareAndSwap(false, true) {
		s.mAsyncDedup.Inc()
		return
	}
	s.mAsyncKicks.Inc()
	go func() {
		defer s.refreshing.Store(false)
		s.refreshMu.Lock()
		defer s.refreshMu.Unlock()
		// A forced Refresh may have landed while we waited for the lock.
		if sn := s.snap.Load(); sn != nil && s.cfg.Clock.Now().Sub(sn.computedAt) < s.ttl {
			return
		}
		// Errors are recorded in lastErr and the error counter; readers
		// keep serving the previous snapshot.
		_ = s.rebuildLocked()
	}()
}

// Priority returns the pre-calculated projected priority of a grid user.
// The hot path is lock-free: one snapshot load, one slot-table lookup and
// the projection of the one entry it finds, zero tree walks, zero
// allocations. The returned Vector shares the
// snapshot's immutable backing array and must not be mutated.
func (s *Service) Priority(user string) (wire.FairshareResponse, error) {
	sn, err := s.current()
	if err != nil {
		return wire.FairshareResponse{}, err
	}
	pos, ok := sn.index.Pos(user)
	if !ok {
		return wire.FairshareResponse{}, ErrUnknownUser
	}
	e := sn.index.At(pos)
	return wire.FairshareResponse{
		User:       user,
		Value:      sn.value(pos, e),
		Vector:     e.Vec,
		Priority:   e.LeafPriority,
		ComputedAt: sn.computedAt,
	}, nil
}

// PriorityBatch resolves many users against one snapshot load — the single
// round trip a resource manager uses to reprioritize a whole queue. Users
// absent from the policy are reported in Missing instead of failing the
// batch. Each entry is composed into the answer, not into the snapshot's
// run cache, which it neither reads nor builds: the answer's vectors share
// one buffer the answer owns, and a batch repeated on one snapshot composes
// again.
func (s *Service) PriorityBatch(users []string) (wire.FairshareBatchResponse, error) {
	sn, err := s.current()
	if err != nil {
		return wire.FairshareBatchResponse{}, err
	}
	out := wire.FairshareBatchResponse{
		Projection: sn.proj.Name(),
		ComputedAt: sn.computedAt,
		Entries:    make([]wire.FairshareResponse, 0, len(users)),
	}
	// The next entry overwrites all of this one but its vector, so the value
	// is projected before it is composed.
	vals := sn.index.ComposeBuffer(len(users))
	for _, u := range users {
		pos, ok := sn.index.Pos(u)
		if !ok {
			out.Missing = append(out.Missing, u)
			continue
		}
		var e fairshare.IndexEntry
		e, vals = sn.index.ComposeInto(pos, vals)
		out.Entries = append(out.Entries, wire.FairshareResponse{
			User:       u,
			Value:      sn.value(pos, e),
			Vector:     e.Vec,
			Priority:   e.LeafPriority,
			ComputedAt: sn.computedAt,
		})
	}
	return out, nil
}

// Table returns the full fairshare table, assembled once per snapshot on
// first use (incremental refreshes that nobody asks a table of never pay
// for one); callers must treat it as read-only.
func (s *Service) Table() (wire.FairshareTableResponse, error) {
	sn, err := s.current()
	if err != nil {
		return wire.FairshareTableResponse{}, err
	}
	sn.tableOnce.Do(func() { sn.table = buildTable(sn) })
	return sn.table, nil
}

// buildTable materializes the wire view of a snapshot.
func buildTable(sn *snapshot) wire.FairshareTableResponse {
	n := sn.index.Len()
	t := wire.FairshareTableResponse{
		Projection: sn.proj.Name(),
		ComputedAt: sn.computedAt,
		Entries:    make([]wire.FairshareResponse, n),
	}
	for i := 0; i < n; i++ {
		e := sn.index.At(i)
		t.Entries[i] = wire.FairshareResponse{
			User:       e.User,
			Value:      sn.value(i, e),
			Vector:     e.Vec,
			Priority:   e.LeafPriority,
			ComputedAt: sn.computedAt,
		}
	}
	return t
}

// Tree returns the current fairshare tree (possibly triggering a refresh if
// stale); callers must treat it as read-only.
func (s *Service) Tree() (*fairshare.Tree, error) {
	sn, err := s.current()
	if err != nil {
		return nil, err
	}
	return sn.tree, nil
}
