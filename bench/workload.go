package main

// The four workloads and the driver that steps them. One goroutine drives
// the Figure 11 chain stage by stage — ingest, exchange, refresh,
// re-prioritization — so that every stage has a clean wall-clock interval
// and stage times add up to the round.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"repro/internal/services/fcs"
	"repro/internal/services/uss"
	"repro/internal/wire"
)

// spec sizes one workload. The populations and per-round work are the
// contract; only warm-up and the minimum round count may be tuned.
type spec struct {
	name string
	why  string

	sites, vos, projects, usersPer int

	durable   bool // every site write-ahead-logs (aequusd -data-dir)
	inproc    bool // no HTTP and no peers: calls go straight into the site
	realClock bool // wall clock instead of a stepped sim clock

	step                        time.Duration // simulated time per round
	historyDays, historyPerUser int
	ingestSites                 []int // in ingest order; the tagged job rides in the last POST of the last one
	jobsPerSite, postsPerSite   int
	queue                       int // users per re-prioritization pass
	warmup, minRounds           int
	fpRounds                    int // rounds covered by the input and priority fingerprints
	reopens                     int // crash-recovery cycles of site0 after the rounds

	// serve_mixed: closed-loop clients beside the chain.
	clients        int
	block          int // completed requests per maintenance round
	warmupRequests int
}

var workloads = []spec{
	{
		name:  "fed_sparse",
		why:   "0.01% of 3x100k users dirty per round under default decay: UMS/USS totals and the FCS rebuild do almost all the work, exchange and ingest almost none",
		sites: 3, vos: 20, projects: 50, usersPer: 100,
		step: time.Minute, historyDays: 14, historyPerUser: 4,
		ingestSites: []int{2, 0}, jobsPerSite: 10, postsPerSite: 1,
		queue: 2000, warmup: 2, minRounds: 30,
	},
	{
		name:  "fed_bulk",
		why:   "20% of 3x20k users complete a job per round on durable sites: exchange, JSON, ingest and the WAL dominate and the refresh is small",
		sites: 3, vos: 10, projects: 20, usersPer: 100, durable: true,
		step: 5 * time.Minute, historyDays: 14, historyPerUser: 4,
		ingestSites: []int{2, 1, 0}, jobsPerSite: 4000, postsPerSite: 4,
		queue: 2000, warmup: 2, minRounds: 30, reopens: 5,
	},
	{
		name:  "serve_mixed",
		why:   "two closed-loop clients read and write over HTTP while exchange and refresh run beside them: httpapi and fcs.Priority do the work and compete with the refresh for two cores",
		sites: 2, vos: 20, projects: 50, usersPer: 100, realClock: true,
		historyDays: 14, historyPerUser: 2,
		ingestSites: []int{0}, jobsPerSite: 1, postsPerSite: 1,
		queue: 2000, minRounds: 30,
		clients: 2, block: 4000, warmupRequests: 10000,
	},
	{
		name:  "refresh_1m",
		why:   "one site, 1M users, 0.01% dirty, no HTTP: the only working set that dwarfs the CPU caches and whose heap makes GC part of the refresh",
		sites: 1, vos: 100, projects: 100, usersPer: 100, inproc: true,
		step: time.Minute, historyDays: 14, historyPerUser: 2,
		ingestSites: []int{0}, jobsPerSite: 100, postsPerSite: 1,
		queue: 2000, warmup: 2, minRounds: 6,
	},
}

// quick shrinks a workload to a smoke test: same stages and checks, two
// sites of 500 users, three rounds.
func (sp spec) quick() spec {
	sp.vos, sp.projects, sp.usersPer = 5, 10, 10
	sp.sites = min(sp.sites, 2)
	var keep []int
	for _, s := range sp.ingestSites {
		if s < sp.sites {
			keep = append(keep, s)
		}
	}
	sp.ingestSites = keep
	sp.jobsPerSite = min(sp.jobsPerSite, 100)
	sp.queue = 50
	sp.warmup, sp.minRounds = min(sp.warmup, 1), 3
	sp.reopens = min(sp.reopens, 2)
	if sp.clients > 0 {
		sp.block, sp.warmupRequests = 200, 200
	}
	return sp
}

func specByName(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// The tagged job of every round: 64 cores for two hours, large enough that
// its owner's priority visibly moves.
const (
	taggedProcs = 64
	taggedDur   = 2 * time.Hour
)

var taggedCoreSeconds = taggedDur.Seconds() * taggedProcs

// result is everything one run of one workload reports.
type result struct {
	Workload         string             `json:"workload"`
	Traced           bool               `json:"traced"`
	Fingerprint      string             `json:"input_fingerprint"`
	StateFingerprint string             `json:"state_fingerprint,omitempty"`
	Noisy            bool               `json:"noisy"`
	Rounds           int                `json:"timed_rounds"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	Failures         []string           `json:"failures,omitempty"`
	EndToEnd         map[string]summary `json:"end_to_end"`
	PerLayer         map[string]summary `json:"per_layer,omitempty"`
}

// runner is the state of one run.
type runner struct {
	sp      spec
	seconds float64
	outDir  string
	fed     *federation
	tr      *tracer
	col     *collector
	res     *result

	jobRNG *rng
	fp     *fingerprint
	state  *fingerprint // priorities seen by the passes every invocation runs

	tagged     int     // index of the tagged user
	observer   *stack  // where peer propagation is observed (site1, or the only site)
	prevTotal  float64 // tagged user's UMS total at the observer after the previous round
	prevAt     time.Time
	window     hostWindow // opened when the timed part starts
	round      int
	roundSpan  int
	lastFsyncs int64
	lastWAL    int64
}

func (r *runner) attempt() { r.res.Attempted++ }

func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	r.note(format, args...)
}

// note keeps the first few failure messages for the report.
func (r *runner) note(format string, args ...any) {
	if len(r.res.Failures) < 8 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and its failure, if any.
func (r *runner) check(err error, what string) bool {
	r.attempt()
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// stage runs fn as one stage of the chain on st (nil for a stage that
// belongs to no single site). It always returns fn's wall time; in a traced
// run it also records a span, the stage's duration sample and the bytes it
// allocated. Allocation deltas are only attributed when the driver is the
// sole goroutine doing work, i.e. not beside serve_mixed's clients.
func (r *runner) stage(name string, st *stack, fn func() error) (time.Duration, error) {
	if r.tr == nil {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	site := -1
	if st != nil {
		site = st.idx
	}
	id := r.tr.start(name, r.roundSpan, r.round, site)
	if st != nil {
		st.openStage.Store(int64(id))
	}
	a0 := allocBytes()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	a1 := allocBytes()
	r.tr.end(id)
	r.col.add(name+"_ms", ms(d))
	if r.sp.clients == 0 {
		r.col.add(name+"_alloc_mb", float64(a1-a0)/(1<<20))
	}
	return d, err
}

// runWorkload sets a workload up, drives it for at least `seconds` of timed
// rounds (and at least sp.minRounds), checks the outputs and reports.
func runWorkload(sp spec, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{
		sp: sp, seconds: seconds, outDir: outDir, col: newCollector(),
		fp: newFingerprint(), state: newFingerprint(),
		res: &result{Workload: sp.name, Traced: traced, EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}},
	}
	if traced {
		r.tr = newTracer()
	}
	root := newRNG(seed ^ fnvString(sp.name))
	r.jobRNG = root.split(2)

	resetPeakRSS()
	setupStart := time.Now()
	pol, users := genPolicy(root.split(1), r.fp, sp.vos, sp.projects, sp.usersPer)
	fed, err := newFederation(sp, pol, users, r.tr, r.col, outDir)
	if err != nil {
		return nil, err
	}
	defer fed.close()
	r.fed = fed
	r.tagged = root.split(3).intn(len(users))
	r.observer = fed.stacks[min(1, len(fed.stacks)-1)]
	for _, st := range fed.stacks {
		for _, u := range pickDistinct(root.split(uint64(10+st.idx)), len(users), sp.queue, r.tagged) {
			st.queue = append(st.queue, users[u])
			r.fp.u64(uint64(u))
		}
	}
	if err := r.preload(root.split(4)); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	setup := time.Since(setupStart)
	if sp.durable {
		r.lastFsyncs, r.lastWAL = r.walTotals()
	}

	phase := time.Now()
	lap := func() float64 {
		d := time.Since(phase).Seconds()
		phase = time.Now()
		return d
	}
	if sp.clients > 0 {
		r.serve(root.split(5))
	} else {
		r.rounds()
	}
	steal, cpu := r.window.close()
	heap := heapLiveMB()
	roundsS := lap()

	r.finalChecks()
	checksS := lap()
	var recovery []float64
	if sp.reopens > 0 {
		recovery = r.recoveryCycles()
	}
	if traced {
		r.probes()
	}
	fmt.Fprintf(os.Stderr, "bench: %s: set-up %.1fs, rounds %.1fs, checks %.1fs, recovery and probes %.1fs\n",
		sp.name, setup.Seconds(), roundsS, checksS, lap())

	r.report(setup.Seconds(), heap, steal, cpu, recovery)
	if traced {
		if err := writeJSON(fmt.Sprintf("%s/trace-%s.json", outDir, sp.name), r.tr.spans); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// preload ingests the usage history in one-day slices with an exchange
// after each, then exchanges and refreshes once more so the first round
// starts from a published snapshot. Slicing is not a nicety: every JSON
// response is capped at 8 MiB (wire.ReadJSON), so a first pull of more than
// about 80k records fails with "unexpected EOF".
func (r *runner) preload(hr *rng) error {
	f, sp := r.fed, r.sp
	end := f.clock.Now().Truncate(time.Hour)
	for d := 0; d < sp.historyDays; d++ {
		for _, st := range f.stacks {
			jobs := genHistorySlice(hr, r.fp, len(f.users), sp.historyPerUser, sp.historyDays, d, end)
			st.ingestInProcess(f.users, jobs)
		}
		if err := r.exchangeAll(); err != nil {
			return fmt.Errorf("history slice %d: %w", d, err)
		}
	}
	for _, st := range f.stacks {
		if err := st.site.Refresh(); err != nil {
			return fmt.Errorf("%s: first refresh: %w", st.name, err)
		}
		if st.log != nil {
			st.log.MarkReady()
		}
	}
	ds, err := r.observer.site.UMS.UsageDeltas(0)
	if err != nil {
		return err
	}
	r.prevTotal, r.prevAt = ds.Totals[f.users[r.tagged]], f.clock.Now()
	return nil
}

// book enters accepted completions in the generator's ledger for the site.
func (st *stack) book(jobs []job) {
	for _, j := range jobs {
		st.ledgerCoreSeconds += j.coreSeconds()
	}
	st.ledgerJobs += len(jobs)
}

// ingestInProcess hands completions straight to the site's USS.
func (st *stack) ingestInProcess(users []string, jobs []job) {
	reports := make([]uss.JobReport, len(jobs))
	for i, j := range jobs {
		reports[i] = uss.JobReport{User: users[j.user], Start: j.start(), Duration: j.dur, Procs: j.procs}
	}
	st.site.USS.ReportJobBatch(reports)
	st.book(jobs)
}

func wireReports(users []string, jobs []job) []wire.UsageReport {
	out := make([]wire.UsageReport, len(jobs))
	for i, j := range jobs {
		out[i] = wire.UsageReport{User: users[j.user], Start: j.start(), DurationSeconds: j.dur.Seconds(), Procs: j.procs}
	}
	return out
}

func (r *runner) exchangeAll() error {
	for _, st := range r.fed.stacks {
		if _, err := st.exchange(); err != nil {
			return fmt.Errorf("%s: exchange: %w", st.name, err)
		}
	}
	return nil
}

// exchange is one exchange round under aequusd's default 30 s deadline; it
// returns the number of records pulled.
func (st *stack) exchange() (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return st.site.USS.Exchange(ctx)
}

// rounds drives the sequential workloads: warm-up, then timed rounds until
// both the minimum count and the requested seconds are reached.
func (r *runner) rounds() {
	sp := r.sp
	var timedStart time.Time
	for n := 0; ; n++ {
		timed := n >= sp.warmup
		if n == sp.warmup {
			r.col.setTimed(true)
			r.window, timedStart = openHostWindow(), time.Now()
		}
		if n == sp.fpRounds {
			r.fp.freeze()
			r.state.freeze()
		}
		posts := r.genRound(r.fed.clock.Now().Add(sp.step))
		t0 := time.Now()
		if r.fed.sim != nil {
			r.fed.sim.Advance(sp.step)
		}
		r.chain(n, posts)
		r.col.add("round_ms", ms(time.Since(t0)))
		if timed {
			r.res.Rounds++
			if r.res.Rounds >= sp.minRounds && time.Since(timedStart).Seconds() >= r.seconds {
				break
			}
		}
	}
	r.col.setTimed(false)
}

// post is one ingest request: a batch of completions for one site.
type post struct {
	st   *stack
	jobs []job
}

// genRound draws one round's completions, ending in the step before `now`.
// The tagged job replaces the last job of the last POST.
func (r *runner) genRound(now time.Time) []post {
	sp := r.sp
	window := max(sp.step, time.Minute)
	var posts []post
	for _, s := range sp.ingestSites {
		per := sp.jobsPerSite / sp.postsPerSite
		for p := 0; p < sp.postsPerSite; p++ {
			jobs := make([]job, per)
			for i := range jobs {
				jobs[i] = genJob(r.jobRNG, r.fp, r.jobRNG.intn(len(r.fed.users)), now, window)
			}
			posts = append(posts, post{st: r.fed.stacks[s], jobs: jobs})
		}
	}
	last := posts[len(posts)-1].jobs
	last[len(last)-1] = job{user: r.tagged, end: now, dur: taggedDur, procs: taggedProcs}
	return posts
}

// chain is one pass over the Figure 11 delay chain: the round's completions
// are ingested (the tagged one last), then every site in turn exchanges,
// refreshes and re-prioritizes its queue. Site 1 goes first, so the peer
// propagation of the tagged job is one contiguous interval.
func (r *runner) chain(n int, posts []post) {
	f := r.fed
	r.round = n
	r.roundSpan = r.tr.start("round", 0, n, -1)
	defer func() { r.tr.end(r.roundSpan) }()

	f.round.Store(int64(n))
	jobs := 0
	_, _ = r.stage("httpapi.ingest", nil, func() error {
		for _, p := range posts {
			r.ingest(p)
			jobs += len(p.jobs)
		}
		return nil
	})
	r.col.add("httpapi.ingest_jobs", float64(jobs))
	ack := time.Now()
	instant := f.clock.Now() // the refresh instant every fresh entry must carry (sim clock)
	if f.sim == nil {
		instant = ack
	}

	for _, st := range f.turnOrder() {
		if len(f.stacks) > 1 {
			_, _ = r.stage("uss.exchange", st, func() error {
				recs, err := st.exchange()
				r.col.add("uss.exchange_records", float64(recs))
				r.check(err, st.name+" exchange")
				return err
			})
		}
		refresh := r.refresh(st)
		if st == r.observer {
			r.checkTaggedTotal()
		}
		if f.sim == nil {
			st.lib.FlushCaches() // the 30 s TTL cannot lapse between real-clock rounds
		}
		cold, _ := r.stage("libaequus.batch_cold", st, func() error { return r.pass(st, instant, true) })
		_, _ = r.stage("libaequus.batch_warm", st, func() error { return r.pass(st, instant, false) })

		if st == r.observer && len(f.stacks) > 1 {
			r.col.add("propagation_peer_ms", ms(time.Since(ack)))
		}
		if st.idx == 0 {
			// The local chain has no exchange hop and does not wait for
			// other sites' turns: it is the refresh and the cold pass.
			r.col.add("propagation_local_ms", ms(refresh+cold))
		}
	}

	if r.sp.durable {
		r.durableRound(n, jobs)
	}
}

// turnOrder is site1, site0, then the rest.
func (f *federation) turnOrder() []*stack {
	if len(f.stacks) < 2 {
		return f.stacks
	}
	out := []*stack{f.stacks[1], f.stacks[0]}
	return append(out, f.stacks[2:]...)
}

// ingest delivers one POST /usage/batch (or its in-process equivalent) and
// books it in the site's ledger when it was accepted.
func (r *runner) ingest(p post) {
	if r.sp.inproc {
		p.st.ingestInProcess(r.fed.users, p.jobs)
		r.attempt()
		return
	}
	err := p.st.api.ReportJobBatch(wireReports(r.fed.users, p.jobs))
	if r.check(err, p.st.name+" ingest") {
		p.st.book(p.jobs)
	}
}

// refresh is Site.Refresh. The traced pass times its two halves separately:
// UMS.Invalidate + UMS.UsageDeltas(0) recomputes the totals exactly as the
// refresh would, and the FCS.Refresh that follows finds a fresh UMS cache,
// so the sum is the same work in the same order.
func (r *runner) refresh(st *stack) time.Duration {
	t0 := time.Now()
	var err error
	if r.tr == nil {
		err = st.site.Refresh()
	} else {
		_, err = r.stage("ums.totals", st, func() error {
			st.site.UMS.Invalidate()
			ds, err := st.site.UMS.UsageDeltas(0)
			r.col.add("ums.users", float64(len(ds.Totals)))
			return err
		})
		if err == nil {
			_, err = r.stage("fcs.refresh", st, st.site.FCS.Refresh)
		}
	}
	d := time.Since(t0)
	r.col.add("refresh_ms", ms(d))
	if r.check(err, st.name+" refresh") {
		info := st.site.FCS.LastRefresh()
		if info.Mode == fcs.RefreshIncremental {
			r.col.count("fcs.refresh_incremental", 1)
		} else {
			r.col.count("fcs.refresh_full", 1)
		}
		r.col.add("fcs.dirty_users", float64(info.DirtyUsers))
	}
	return d
}

// pass is one re-prioritization pass: the resource manager asks libaequus
// for its whole queue. A cold pass must return an entry for the tagged user
// computed at (sim clock) or after (real clock) the round instant;
// anything older means the completion has not propagated.
func (r *runner) pass(st *stack, instant time.Time, cold bool) error {
	res, err := st.lib.FairshareBatch(st.queue)
	if !r.check(err, st.name+" pass") {
		return err
	}
	if len(res) != len(st.queue) {
		r.fail("%s pass returned %d of %d users", st.name, len(res), len(st.queue))
	}
	if !cold {
		return nil
	}
	r.attempt()
	e, ok := res[r.fed.users[r.tagged]]
	fresh := e.ComputedAt.Equal(instant)
	if r.fed.sim == nil {
		fresh = !e.ComputedAt.Before(instant)
	}
	if !ok || !fresh {
		r.fail("%s round %d: tagged user not observed fresh (computedAt %v, want %v)", st.name, r.round, e.ComputedAt, instant)
	}
	if !r.state.frozen && r.fed.sim != nil {
		for _, u := range st.queue {
			r.state.u64(math.Float64bits(res[u].Value))
		}
	}
	return nil
}

// checkTaggedTotal verifies the tagged completion reached the observer's
// UMS: the tagged user's decayed total must have risen by at least 99% of
// the job's core-seconds once the previous total is discounted by one step
// of decay. UsageDeltas(0) is a cache hit here and hands back the internal
// map without copying it.
func (r *runner) checkTaggedTotal() {
	r.attempt()
	ds, err := r.observer.site.UMS.UsageDeltas(0)
	if err != nil {
		r.fail("observer totals: %v", err)
		return
	}
	now := r.fed.clock.Now()
	total := ds.Totals[r.fed.users[r.tagged]]
	discounted := r.prevTotal * math.Exp2(-float64(now.Sub(r.prevAt))/float64(defHalfLife))
	if rise := total - discounted; rise < 0.99*taggedCoreSeconds {
		r.fail("round %d: tagged user's total at %s rose by %.0f core-seconds, want >= %.0f",
			r.round, r.observer.name, rise, 0.99*taggedCoreSeconds)
	}
	r.prevTotal, r.prevAt = total, now
}

// durableRound snapshots every site each 15 simulated minutes, as aequusd's
// -snapshot-interval does, and records the round's WAL traffic.
func (r *runner) durableRound(n, jobs int) {
	every := int(defSnapshotEvery / r.sp.step)
	if every > 0 && (n+1)%every == 0 {
		for _, st := range r.fed.stacks {
			_, err := r.stage("durability.snapshot", st, st.site.SnapshotDurable)
			r.check(err, st.name+" snapshot")
		}
	}
	fsyncs, bytes := r.walTotals()
	r.col.add("durability.fsyncs_per_round", float64(fsyncs-r.lastFsyncs))
	r.col.add("durability.wal_bytes_per_job", float64(bytes-r.lastWAL)/float64(jobs))
	r.lastFsyncs, r.lastWAL = fsyncs, bytes
}

func (r *runner) walTotals() (fsyncs, bytes int64) {
	for _, st := range r.fed.stacks {
		s := st.log.Stats()
		fsyncs += s.Fsyncs
		bytes += s.AppendedBytes
	}
	return fsyncs, bytes
}
