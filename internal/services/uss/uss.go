// Package uss implements the Usage Statistics Service: it gathers per-job
// usage results of the local site, produces per-user histograms for
// configurable time intervals, and exchanges compact usage records with the
// USS instances of other sites. Per-site exchange flags model the partial-
// participation scenarios of Section IV (a site may read global data without
// contributing, or contribute without consuming).
package uss

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/durability"
	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
)

// Peer is a remote USS this instance pulls records from: an httpapi.Client
// in aequusd, the bench and the scenario harness, or a *Service wired
// directly (core.FullMesh).
type Peer interface {
	// Site identifies the remote site.
	Site() string
	// RecordsSince returns the remote site's local records from t on. The
	// context carries the request ID of the exchange that triggered the
	// pull, so one exchange is traceable across site hops.
	RecordsSince(ctx context.Context, t time.Time) ([]usage.Record, error)
}

// DefaultBinWidth is the histogram interval used when Config.BinWidth is
// zero, and the one a deployed site runs with (core.Defaults).
const DefaultBinWidth = time.Hour

// Config configures a USS instance.
type Config struct {
	// Site is this installation's site name.
	Site string
	// BinWidth is the histogram interval width (default DefaultBinWidth).
	BinWidth time.Duration
	// Contribute controls whether this site serves its records to peers.
	// A non-contributing site is invisible to the rest of the grid.
	Contribute bool
	// Clock provides time (default wall clock).
	Clock simclock.Clock
	// Metrics receives the service's instruments (default registry if nil).
	Metrics *telemetry.Registry
	// PeerTimeout bounds each peer pull of an exchange round in wall-clock
	// time (0 = only the round's own context deadline applies). A hung peer
	// costs at most this much, and pulls run concurrently, so it cannot
	// delay the other peers either.
	PeerTimeout time.Duration
	// Breaker configures the per-peer circuit breakers. The zero value
	// disables breaking: every peer is dialed every round, as before.
	// With a threshold set, a peer that keeps failing is skipped (not
	// dialed at all) until the cooldown elapses, then probed half-open.
	Breaker resilience.BreakerConfig
	// Spans receives exchange-round trace spans (nil disables tracing). A
	// recorder already present on the exchange context — e.g. attached by the
	// HTTP server's route — takes precedence, so spans of a triggered
	// exchange land in the trace of the request that triggered it.
	Spans *span.Recorder
	// Durable, when set, write-ahead-logs every usage mutation before it is
	// applied: job reports, batch ingests (one group-committed record and
	// thus one fsync per batch), and peer-exchange bin replacements. The
	// owner replays the log — snapshot frames, then the WAL tail — through
	// ApplyMutation.
	Durable *durability.Log
}

// Service is a Usage Statistics Service instance.
type Service struct {
	cfg   Config
	mu    sync.Mutex
	local *usage.Histogram // usage of jobs executed on this site
	// remote holds one histogram per peer site, updated incrementally:
	// exchange re-fetches records from one bin before the per-peer
	// watermark and replaces those bins, so a still-filling interval can be
	// re-fetched without double counting while closed intervals are never
	// transferred twice.
	remote    map[string]*usage.Histogram
	watermark map[string]time.Time
	peers     []Peer
	// peerState tracks per-peer exchange health (last success, last error,
	// consecutive failures) — the inputs of /readyz's peer staleness view.
	peerState map[string]*peerState
	// cursor is the change cursor of the site's UMS over the histograms
	// (see View).
	cursor usage.Cursor

	// breakers holds the per-peer circuit breakers (nil when disabled).
	breakers *resilience.BreakerSet

	mReports        *telemetry.Counter
	mDurableErrs    *telemetry.Counter
	mExchangeRecs   *telemetry.CounterVec
	mExchangeErrors *telemetry.CounterVec
	mExchangeSkips  *telemetry.CounterVec
	mPeerStaleness  *telemetry.GaugeVec
	mWatermarkAge   *telemetry.GaugeVec
}

// peerState is one peer's exchange bookkeeping, guarded by Service.mu.
type peerState struct {
	lastSuccess time.Time
	lastErr     error
	consecFails int
}

// New creates a USS.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.BinWidth <= 0 {
		cfg.BinWidth = DefaultBinWidth
	}
	if cfg.Breaker.Clock == nil {
		cfg.Breaker.Clock = cfg.Clock
	}
	reg := telemetry.OrDefault(cfg.Metrics)
	s := &Service{
		cfg:       cfg,
		local:     usage.NewHistogram(cfg.BinWidth),
		remote:    map[string]*usage.Histogram{},
		watermark: map[string]time.Time{},
		peerState: map[string]*peerState{},
		breakers:  resilience.NewBreakerSet(cfg.Breaker, reg),
		mReports: reg.Counter("aequus_uss_usage_reports_total",
			"Job-completion usage reports ingested by the local USS."),
		mDurableErrs: reg.Counter("aequus_uss_durability_errors_total",
			"Usage mutations dropped because the WAL commit failed."),
		mExchangeRecs: reg.CounterVec("aequus_uss_exchange_records_total",
			"Compact usage records ingested from peers, by peer site.", "peer"),
		mExchangeErrors: reg.CounterVec("aequus_uss_exchange_errors_total",
			"Failed peer pulls during usage exchange, by peer site.", "peer"),
		mExchangeSkips: reg.CounterVec("aequus_uss_exchange_skipped_total",
			"Peer pulls skipped because the peer's circuit breaker was open, by peer site.", "peer"),
		mPeerStaleness: reg.GaugeVec("aequus_uss_peer_staleness_seconds",
			"Seconds since the last successful pull from each peer (-1 = never succeeded).", "peer"),
		mWatermarkAge: reg.GaugeVec("aequus_uss_peer_watermark_age_seconds",
			"Age of the newest ingested usage interval per peer (-1 = nothing ingested yet). Grows while a peer is unreachable.", "peer"),
	}
	return s
}

// Site returns this instance's site name.
func (s *Service) Site() string { return s.cfg.Site }

// AddPeer registers a remote USS to pull usage from.
func (s *Service) AddPeer(p Peer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = append(s.peers, p)
}

// ReportJob records one completed job: a one-job ReportJobBatch.
func (s *Service) ReportJob(user string, start time.Time, dur time.Duration, procs int) {
	s.ReportJobBatch([]JobReport{{User: user, Start: start, Duration: dur, Procs: procs}})
}

// JobReport is one completed job in a batch ingest.
type JobReport struct {
	User     string
	Start    time.Time
	Duration time.Duration
	Procs    int
}

// ReportJobBatch records completed jobs into the local histogram with one
// lock acquisition per touched histogram stripe — the one way local usage
// gets in. A job's full usage is attributed to the interval containing its
// completion time: completion-time attribution keeps closed intervals
// immutable, which is what makes the incremental inter-site exchange sound.
// Invalid entries (empty user, non-positive duration) are skipped, and a
// batch with none left writes nothing, not even an empty WAL record.
func (s *Service) ReportJobBatch(jobs []JobReport) {
	// One slice of bin ops is both what the histogram ingests and what the
	// WAL record holds, so durability adds no copy of the batch.
	ops := make([]usage.BinOp, 0, len(jobs))
	for _, j := range jobs {
		if j.Duration <= 0 || j.User == "" {
			continue
		}
		procs := j.Procs
		if procs < 1 {
			procs = 1
		}
		ops = append(ops, usage.BinOp{
			User:  j.User,
			Start: s.local.AlignStart(j.Start.Add(j.Duration)),
			Value: j.Duration.Seconds() * float64(procs),
		})
	}
	if len(ops) == 0 {
		return
	}
	if s.cfg.Durable == nil {
		s.mReports.Add(float64(len(ops)))
		s.local.IngestOps(ops)
		return
	}
	// The whole batch is one WAL record — the group-commit point. One
	// Commit means one fsync regardless of batch size. Grouping the ops by
	// histogram stripe reads no histogram state, so it runs beside the
	// record's encode and fsync instead of after them; the ops reach the
	// histogram only once the record is durable.
	grouped := make(chan *usage.OpBatch, 1)
	go func() {
		var b usage.OpBatch
		b.Add(ops)
		grouped <- &b
	}()
	apply := func() {
		s.mReports.Add(float64(len(ops)))
		s.local.IngestGrouped(<-grouped)
	}
	if err := s.cfg.Durable.Commit(&usage.Mutation{Kind: usage.MutLocalBatch, Ops: ops}, apply); err != nil {
		s.mDurableErrs.Inc()
	}
}

// RecordsSince serves this site's local records from t on — the compact
// inter-site exchange format. A non-contributing site serves nothing.
// While the durable log is still replaying its WAL tail, peers are served
// the frozen pre-crash snapshot instead of the half-rebuilt live histogram:
// they see the pre-crash watermark, never partial state, and their next
// pull re-fetches from one bin before that watermark, which covers every
// bin the replayed tail can touch (completion-time attribution only ever
// adds at or past the snapshot cut).
func (s *Service) RecordsSince(_ context.Context, t time.Time) ([]usage.Record, error) {
	if !s.cfg.Contribute {
		return nil, nil
	}
	if d := s.cfg.Durable; d != nil {
		if recs, ok := d.FrozenRecordsSince(s.cfg.Site, t); ok {
			return recs, nil
		}
	}
	return s.local.RecordsSince(s.cfg.Site, t), nil
}

// Exchange pulls new compact records from every peer. Records since one bin
// before the per-peer watermark are fetched and their bins *replaced* in the
// peer's remote histogram, making the exchange incremental (closed intervals
// transfer once) yet idempotent (the open interval is re-fetched and
// overwritten). It returns the number of records pulled and the first
// error in peer order (all reachable peers are still attempted). The
// context's request ID is forwarded to every peer pull, so one exchange
// round is traceable across the federation.
//
// Resilience semantics: peers are pulled concurrently, each bounded by
// Config.PeerTimeout (and the round's own context deadline), so one slow or
// hung peer never blocks the others or the round. A peer whose circuit
// breaker is open is skipped without dialing — the skip is counted in
// aequus_uss_exchange_skipped_total but is not an error; the paper's
// partial-exchange semantics already define priorities over whatever data is
// available.
func (s *Service) Exchange(ctx context.Context) (int, error) {
	s.mu.Lock()
	peers := append([]Peer(nil), s.peers...)
	s.mu.Unlock()

	ctx = span.EnsureRecorder(ctx, s.cfg.Spans)
	ctx, root := span.Start(ctx, "uss.exchange")
	root.SetAttr("site", s.cfg.Site)
	root.SetAttrInt("peers", int64(len(peers)))
	defer root.End()

	counts := make([]int, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p Peer) {
			defer wg.Done()
			counts[i], errs[i] = s.pullPeer(ctx, p)
		}(i, p)
	}
	wg.Wait()

	total := 0
	var firstErr error
	for i := range peers {
		total += counts[i]
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	root.SetAttrInt("records", int64(total))
	root.SetErr(firstErr)
	return total, firstErr
}

// pullPeer performs one peer's pull-and-ingest of an exchange round. The
// per-peer state (watermark, remote histogram, health bookkeeping) is
// independent across peers, so concurrent pulls stay deterministic.
func (s *Service) pullPeer(ctx context.Context, p Peer) (int, error) {
	site := p.Site()
	br := s.breakers.For(site)

	ctx, sp := span.Start(ctx, "uss.pull")
	sp.SetAttr("peer", site)
	defer sp.End()

	// The state is read after Allow, which is what moves an open breaker
	// whose cooldown has passed to half-open: a probe is recorded as one.
	allowed := br.Allow()
	if br != nil {
		sp.SetAttr("breaker", br.State().String())
	} else {
		sp.SetAttr("breaker", "disabled")
	}
	if !allowed {
		s.mExchangeSkips.With(site).Inc()
		sp.SetAttr("skipped", "breaker-open")
		s.updateWatermarkAge(site)
		return 0, nil
	}

	s.mu.Lock()
	since := s.watermark[site]
	s.mu.Unlock()
	if !since.IsZero() {
		// Re-fetch the last (possibly still-filling) interval.
		since = since.Add(-s.cfg.BinWidth)
	}

	pctx := ctx
	if s.cfg.PeerTimeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, s.cfg.PeerTimeout)
		defer cancel()
	}
	recs, err := p.RecordsSince(pctx, since)
	if err == nil {
		err = checkFinite(recs)
	}
	if err != nil {
		br.Failure(err)
		s.mExchangeErrors.With(site).Inc()
		s.notePeer(site, err)
		s.updateWatermarkAge(site)
		sp.SetErr(err)
		return 0, err
	}
	br.Success()
	s.mExchangeRecs.With(site).Add(float64(len(recs)))
	s.notePeer(site, nil)
	sp.SetAttrInt("records", int64(len(recs)))
	if len(recs) == 0 {
		s.updateWatermarkAge(site)
		return 0, nil
	}
	s.mu.Lock()
	hist := s.remote[site]
	if hist == nil {
		hist = usage.NewHistogram(s.cfg.BinWidth)
		s.remote[site] = hist
	}
	old := s.watermark[site]
	s.mu.Unlock()
	// Only records that start by one bin past the puller's clock move the
	// watermark: one future-dated report at the peer would otherwise carry
	// every later pull past the peer's real usage for good. Later records are
	// still applied; each round re-pulls them and Changing drops them.
	horizon := s.cfg.Clock.Now().Add(s.cfg.BinWidth)
	newest := old
	for _, r := range recs {
		if r.IntervalStart.After(newest) && !r.IntervalStart.After(horizon) {
			newest = r.IntervalStart
		}
	}
	// Every pull re-fetches the open and the previous bin whole, and most of
	// what arrives the mirror already holds bit for bit. Only what changes it
	// is logged and applied.
	changed := hist.Changing(recs)
	sp.SetAttrInt("changed", int64(len(changed)))
	if len(changed) == 0 && newest.Equal(old) {
		s.updateWatermarkAge(site)
		return len(recs), nil
	}
	// Batch replacement: one lock acquisition per histogram stripe instead
	// of one per record, and all of a user's re-fetched bins land atomically
	// with respect to GlobalTotals readers.
	apply := func() {
		hist.SetRecords(changed)
		s.mu.Lock()
		s.watermark[site] = newest
		s.mu.Unlock()
	}
	if d := s.cfg.Durable; d != nil {
		ops := make([]usage.BinOp, len(changed))
		for i, r := range changed {
			ops[i] = usage.BinOp{User: r.User, Start: hist.AlignStart(r.IntervalStart), Value: r.CoreSeconds}
		}
		mut := &usage.Mutation{Kind: usage.MutRemoteSet, Site: site, Ops: ops, Watermark: newest.UnixNano()}
		if err := d.Commit(mut, apply); err != nil {
			s.mDurableErrs.Inc()
			s.updateWatermarkAge(site)
			sp.SetErr(err)
			return 0, err
		}
	} else {
		apply()
	}
	s.updateWatermarkAge(site)
	return len(recs), nil
}

// checkFinite refuses a pull that carries a NaN or an infinite usage value.
// The canonical encoding can hold one where JSON could not, and a single one
// would poison every sum it is added to, so the whole pull fails like any
// other bad answer: nothing of it is applied or logged.
func checkFinite(recs []usage.Record) error {
	for i, r := range recs {
		if math.IsNaN(r.CoreSeconds) || math.IsInf(r.CoreSeconds, 0) {
			return fmt.Errorf("uss: pulled record %d of %d (user %q, interval %s) has non-finite usage %v",
				i+1, len(recs), r.User, r.IntervalStart.UTC().Format(time.RFC3339), r.CoreSeconds)
		}
	}
	return nil
}

// updateWatermarkAge refreshes one peer's watermark-age gauge: how old the
// newest ingested usage interval is. Unlike staleness (time since the last
// successful pull), this measures how far behind the *data* is — an empty
// but successful pull keeps staleness at zero while watermark age grows.
func (s *Service) updateWatermarkAge(site string) {
	s.mu.Lock()
	wm := s.watermark[site]
	s.mu.Unlock()
	if wm.IsZero() {
		s.mWatermarkAge.With(site).Set(-1)
		return
	}
	s.mWatermarkAge.With(site).Set(s.cfg.Clock.Now().Sub(wm).Seconds())
}

// notePeer records one pull outcome in the per-peer health state and keeps
// the staleness gauge current.
func (s *Service) notePeer(site string, err error) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	st := s.peerState[site]
	if st == nil {
		st = &peerState{}
		s.peerState[site] = st
	}
	if err == nil {
		st.lastSuccess = now
		st.lastErr = nil
		st.consecFails = 0
	} else {
		st.lastErr = err
		st.consecFails++
	}
	last := st.lastSuccess
	s.mu.Unlock()
	if last.IsZero() {
		s.mPeerStaleness.With(site).Set(-1)
	} else {
		s.mPeerStaleness.With(site).Set(now.Sub(last).Seconds())
	}
}

// PeerStatus is one peer's exchange health, as surfaced by /readyz.
type PeerStatus struct {
	// Site is the peer's site name.
	Site string
	// Breaker is the circuit state ("closed", "open", "half-open", or
	// "disabled" when breaking is off).
	Breaker string
	// LastSuccess is the last successful pull (zero = never).
	LastSuccess time.Time
	// LastError is the most recent pull failure ("" when healthy).
	LastError string
	// ConsecutiveFailures counts pulls failed since the last success.
	ConsecutiveFailures int
}

// PeerStatuses reports every registered peer's exchange health, sorted by
// site name. As a side effect it refreshes the per-peer staleness gauges, so
// scraping /metrics alongside periodic readiness checks keeps them current.
func (s *Service) PeerStatuses() []PeerStatus {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	peers := append([]Peer(nil), s.peers...)
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		site := p.Site()
		ps := PeerStatus{Site: site, Breaker: "disabled"}
		if st := s.peerState[site]; st != nil {
			ps.LastSuccess = st.lastSuccess
			ps.ConsecutiveFailures = st.consecFails
			if st.lastErr != nil {
				ps.LastError = st.lastErr.Error()
			}
		}
		out = append(out, ps)
	}
	s.mu.Unlock()
	for i := range out {
		if br := s.breakers.For(out[i].Site); br != nil {
			ps := &out[i]
			ps.Breaker = br.State().String()
			if ps.LastError == "" && br.LastError() != nil {
				ps.LastError = br.LastError().Error()
			}
		}
		if out[i].LastSuccess.IsZero() {
			s.mPeerStaleness.With(out[i].Site).Set(-1)
		} else {
			s.mPeerStaleness.With(out[i].Site).Set(now.Sub(out[i].LastSuccess).Seconds())
		}
		s.updateWatermarkAge(out[i].Site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// LocalTotals returns decayed per-user totals of locally executed jobs. The
// map is the caller's.
func (s *Service) LocalTotals(now time.Time, d usage.Decay) map[string]float64 {
	return s.local.DecayedTotals(now, d)
}

// GlobalTotals returns decayed per-user totals combining local and ingested
// remote usage. The combination is one accumulation pass: every histogram
// adds straight into the result map (no intermediate per-site maps). The map
// is the caller's. Like LocalTotals it is a plain read under the histograms'
// read locks: it serves the change cursor's incremental sums when d is the
// cursor's decay, walks the bins otherwise, and moves nothing the cursor
// reads.
func (s *Service) GlobalTotals(now time.Time, d usage.Decay) map[string]float64 {
	// Sized for the local population: at scale, growing the map entry by
	// entry costs more than the sums (remote-only users still grow it).
	out := make(map[string]float64, s.local.UserCount())
	for _, h := range s.histograms(true) {
		h.AccumulateDecayed(out, now, d)
	}
	return out
}

// histograms returns the local histogram followed, for the global view, by
// the remote mirrors in site-name order — the fixed order that keeps float
// sums over them reproducible.
func (s *Service) histograms(global bool) []*usage.Histogram {
	out := []*usage.Histogram{s.local}
	if !global {
		return out
	}
	s.mu.Lock()
	siteNames := make([]string, 0, len(s.remote))
	for name := range s.remote {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)
	for _, name := range siteNames {
		out = append(out, s.remote[name])
	}
	s.mu.Unlock()
	return out
}

// View is the usage a UMS reads from this USS: locally executed jobs only
// or, with global, local and exchanged usage — the partial-participation
// knob. It is the site's change cursor, which has one consumer (the site's
// UMS, always through the same view). A View satisfies ums.Source.
type View struct {
	s      *Service
	global bool
}

// View returns the local-only or the global usage view.
func (s *Service) View(global bool) View { return View{s, global} }

// Changes moves the change cursor to `now` and returns the users whose
// usage sum at the cursor's reference instant changed since the previous
// call (see usage.Cursor.Advance for the set's contents and for what makes
// it Full). Reading the in-memory histograms cannot fail: the error is
// always nil.
func (v View) Changes(now time.Time, d usage.Decay) (usage.DeltaSet, error) {
	return v.s.cursor.Advance(v.s.histograms(v.global), now, d), nil
}

// Sums returns every user's sum in the scale of the last Changes pass,
// evaluated at `now`, without moving the cursor; ok is false when the next
// pass will be Full anyway (see usage.Cursor.Sums).
func (v View) Sums(now time.Time) (usage.DeltaSet, bool) {
	return v.s.cursor.Sums(v.s.histograms(v.global), now)
}

// LocalHistogram exposes a copy of the local histogram (for the UMS).
func (s *Service) LocalHistogram() *usage.Histogram { return s.local.Clone() }

// ApplyMutation applies one replayed mutation — a snapshot frame or a WAL
// record; the crash-recovery applier handed to durability.Log.Replay. The
// histogram primitives it uses (IngestOps, SetRecords) perform the same
// float operations, in the same per-stripe order, as the live paths that
// committed the mutation, and SetRecords writes a snapshot's stored float
// bits verbatim, so a replayed histogram is bitwise equal to the pre-crash
// one. (If BinWidth changed across the restart, records re-bin at the new
// width.)
func (s *Service) ApplyMutation(m *usage.Mutation) error {
	switch m.Kind {
	case usage.MutLocalAdd, usage.MutLocalBatch:
		s.local.IngestOps(m.Ops)
	case usage.MutLocalSet:
		s.local.SetRecords(m.Records(s.cfg.Site))
	case usage.MutRemoteSet:
		s.mu.Lock()
		hist := s.remote[m.Site]
		if hist == nil {
			hist = usage.NewHistogram(s.cfg.BinWidth)
			s.remote[m.Site] = hist
		}
		s.mu.Unlock()
		hist.SetRecords(m.Records(m.Site))
		s.mu.Lock()
		s.watermark[m.Site] = time.Unix(0, m.Watermark).UTC()
		s.mu.Unlock()
	default:
		return fmt.Errorf("uss: cannot apply mutation kind %d", m.Kind)
	}
	return nil
}

// CaptureState exports the full durable image of this USS for a snapshot.
// It is designed to run as a durability.Log.Snapshot capture callback:
// commits are blocked by the caller (the cut is consistent with the WAL
// rotation), and the local histogram is read stripe-at-a-time so
// whole-histogram readers (GlobalTotals, exchange serving) never stall
// behind the export.
func (s *Service) CaptureState() *durability.SnapshotState {
	st := &durability.SnapshotState{Local: captureRecords(s.local, s.cfg.Site)}
	s.mu.Lock()
	remotes := make(map[string]*usage.Histogram, len(s.remote))
	for peer, h := range s.remote {
		remotes[peer] = h
	}
	st.Watermark = make(map[string]time.Time, len(s.watermark))
	for peer, wm := range s.watermark {
		st.Watermark[peer] = wm
	}
	s.mu.Unlock()
	st.Remote = make(map[string][]usage.Record, len(remotes))
	for peer, h := range remotes {
		st.Remote[peer] = captureRecords(h, peer)
	}
	return st
}

// captureRecords exports h as site's records, one stripe lock at a time, in
// the canonical order: by user, then interval (nil for none). Each stripe's
// export is in that order already and a user lives in one stripe, so it
// sorts the users' runs by name, the name kept beside each run: it compares
// users, where sorting the whole list compared records.
func captureRecords(h *usage.Histogram, site string) []usage.Record {
	type run struct {
		user string
		recs []usage.Record
	}
	runs := make([]run, 0, h.UserCount())
	n := 0
	for i := 0; i < h.NumStripes(); i++ {
		r := h.StripeRecords(site, i)
		n += len(r)
		for len(r) > 0 {
			k := 1
			for k < len(r) && r[k].User == r[0].User {
				k++
			}
			runs = append(runs, run{r[0].User, r[:k]})
			r = r[k:]
		}
	}
	if n == 0 {
		return nil
	}
	slices.SortFunc(runs, func(a, b run) int { return strings.Compare(a.user, b.user) })
	out := make([]usage.Record, 0, n)
	for _, r := range runs {
		out = append(out, r.recs...)
	}
	return out
}

// LocalRecords exports the local histogram sorted by user then interval.
func (s *Service) LocalRecords() []usage.Record {
	return s.local.Records(s.cfg.Site)
}
