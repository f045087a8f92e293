package scenario

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/eventsim"
	"repro/internal/fairshare"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/maui"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/services/irs"
	"repro/internal/services/uss"
	"repro/internal/slurm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
	"repro/internal/usage"
)

// RM is what the harness needs from a resource manager beyond the shared
// interface: a view of the pending queue for starvation checks.
type RM interface {
	sched.ResourceManager
	Pending() []*sched.Job
}

// Dispatch is one observed job start, recorded through the schedulers'
// OnStart hooks with the queue priority and scheduling pass it belonged to.
type Dispatch struct {
	Site     int
	Pass     uint64
	Priority float64
	JobID    int64
	User     string
	Procs    int
	Submit   time.Time
	Start    time.Time
}

// Violation is one detected invariant breach.
type Violation struct {
	At        time.Time
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.At.Format(time.RFC3339), v.Invariant, v.Detail)
}

// Options controls one harness run.
type Options struct {
	// MaxEvents bounds the number of kernel events executed (0 = no
	// bound). Because a run is deterministic, executing with a smaller
	// budget replays an exact prefix — the shrinker's lever.
	MaxEvents int
	// FailFast stops stepping after the first violation (the fuzzer's
	// mode); false records all violations over the full run.
	FailFast bool
	// Checkers overrides DefaultCheckers (nil = defaults).
	Checkers []Checker
}

// Result is one run's outcome.
type Result struct {
	Spec      *Spec
	Events    int
	Submitted int64
	// Completed, QueuedAtEnd and the paper metrics below are cut at the
	// nominal end of the run, before the drain empties the queues.
	Completed   int64
	QueuedAtEnd int
	// UsageShares holds each user's share of the usage consumed grid-wide
	// within the sliding ShareWindow, sampled at every check (Figures
	// 10a/12/13a).
	UsageShares metrics.PerUser
	// SitePriorities holds each site's leaf priority per user, sampled at
	// every check (the partial-participation figure); Priorities is site
	// 0's (Figure 13b).
	SitePriorities []metrics.PerUser
	Priorities     metrics.PerUser
	// Utilization is the mean core utilization across sites.
	Utilization float64
	// SustainedRate and PeakRate are the workload's submissions per minute
	// over the run and in its busiest minute.
	SustainedRate, PeakRate float64
	// WaitStats summarizes per-user queue waits and bounded slowdowns of
	// the jobs completed by the nominal end.
	WaitStats  map[string]metrics.WaitStat
	Violations []Violation
	// Fingerprint digests every dispatch, completion, violation, the
	// final per-user usage totals and the post-drain job counts; two runs
	// of the same Spec and Options must produce identical fingerprints.
	Fingerprint string
	// Spans is the run's trace recorder — every site's services record into
	// it, on the simulated clock. (Spans are diagnostic output and are not
	// part of the fingerprint.)
	Spans *span.Recorder
	// TraceDump holds the formatted tail of the span buffer when the run
	// violated an invariant ("" on clean runs) — the first thing to print
	// when debugging a failure.
	TraceDump string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Harness is the live state of one scenario run, exposed to checkers.
type Harness struct {
	Spec     *Spec
	Kernel   *eventsim.Kernel
	Sites    []*core.Site
	Clusters []*cluster.Cluster
	RMs      []RM
	Ledger   *Ledger
	Decay    usage.Decay
	Spans    *span.Recorder

	// start is the run's epoch (Spec.Start, or the package's Start).
	start      time.Time
	pol        *policy.Tree
	dispatches []Dispatch
	violations []Violation
	completed  int64
	events     int
	lastNow    time.Time
	dropArmed  bool
	digest     hash.Hash64

	// res collects the sampled series; users is every user name in sorted
	// order — the sampler's float summation order.
	res     *Result
	users   []string
	history []usageSample
	waits   *metrics.WaitCollector

	// initialPol is the never-edited policy of Start — what a rebuilt site
	// boots from before the WAL replays any MutPolicy edits.
	initialPol *policy.Tree
	// durables holds the per-site durable logs (nil for sites that never
	// restart and so run memory-only, like the default aequusd mode).
	durables []*durability.Log
	// dataDirs holds the WAL directories of durable sites ("" otherwise).
	dataDirs []string
	// peers holds each site's outgoing peer handles (late-binding proxies,
	// fault injectors already spliced in), so a rebuilt site reconnects to
	// exactly the mesh it had.
	peers [][]uss.Peer
}

// sitePeer is a late-binding peer handle: it resolves the target site's USS
// at call time, so a service stack rebuilt by a restart event is immediately
// what its peers talk to. A captured *uss.Service would go stale the moment
// its site restarts.
type sitePeer struct {
	h *Harness
	j int
}

func (p sitePeer) Site() string { return p.h.Sites[p.j].USS.Site() }

func (p sitePeer) RecordsSince(ctx context.Context, t time.Time) ([]usage.Record, error) {
	return p.h.Sites[p.j].USS.RecordsSince(ctx, t)
}

// siteFairshare and siteJobComp are the same late binding for the RM
// plug-ins: the resource manager outlives a site restart (it is a separate
// process from aequusd), so its call-outs must reach whatever service stack
// currently backs the site.
type siteFairshare struct {
	h *Harness
	i int
}

func (siteFairshare) Name() string { return "aequus" }

func (f siteFairshare) Fairshare(localUser string) (float64, error) {
	return slurm.AequusFairshare{Lib: f.h.Sites[f.i].Lib}.Fairshare(localUser)
}

type siteJobComp struct {
	h *Harness
	i int
}

func (c siteJobComp) JobCompleted(j *sched.Job) {
	slurm.AequusJobComp{Lib: c.h.Sites[c.i].Lib}.JobCompleted(j)
}

// Dispatches returns the dispatch log; checkers must treat it as read-only.
func (h *Harness) Dispatches() []Dispatch { return h.dispatches }

// addViolation records a breach and folds it into the fingerprint.
func (h *Harness) addViolation(invariant, format string, args ...interface{}) {
	v := Violation{At: h.Kernel.Now(), Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	h.violations = append(h.violations, v)
	fmt.Fprintf(h.digest, "V|%s\n", v.String())
}

// TargetShares returns each leaf user's effective normalized target share
// under the current policy (the product of normalized shares along the
// leaf's path) — the quantity usage ratios must converge toward.
func (h *Harness) TargetShares() map[string]float64 {
	out := map[string]float64{}
	for _, l := range h.pol.Leaves() {
		share := 1.0
		for _, s := range l.Shares {
			share *= s
		}
		out[l.User] = share
	}
	return out
}

// CumulativeUsage sums consumed core-seconds per grid user across all
// clusters (running jobs included), in site order for deterministic float
// accumulation.
func (h *Harness) CumulativeUsage() map[string]float64 {
	out := map[string]float64{}
	for _, cl := range h.Clusters {
		per := cl.UsageByUser()
		users := make([]string, 0, len(per))
		for u := range per {
			users = append(users, u)
		}
		sort.Strings(users)
		for _, u := range users {
			out[u] += per[u]
		}
	}
	return out
}

// localPrefix is the per-site grid→local identity mapping: the submit host
// prepends it, and the site's identity resolver strips it again (the small
// name-resolution endpoint of the paper's HPC2N deployment).
func localPrefix(i int) string { return fmt.Sprintf("s%02d_", i) }

// validate rejects a spec Run cannot execute faithfully.
func (s *Spec) validate() error {
	if len(s.Jobs) == 0 {
		return errors.New("scenario: no jobs")
	}
	if s.RM != RMSlurm && s.RM != RMMaui {
		return fmt.Errorf("scenario: unknown RM %q", s.RM)
	}
	if s.Dispatch != "" && s.Dispatch != DispatchStochastic && s.Dispatch != DispatchRoundRobin {
		return fmt.Errorf("scenario: unknown dispatch %q", s.Dispatch)
	}
	if len(s.Modes) != 0 && len(s.Modes) != s.Sites {
		return fmt.Errorf("scenario: %d site modes for %d sites", len(s.Modes), s.Sites)
	}
	users := map[string]bool{}
	for _, u := range s.Users {
		users[u.Name] = true
	}
	for _, j := range s.Jobs {
		if !users[j.User] {
			return fmt.Errorf("scenario: job %d is for user %q, who has no UserSpec", j.ID, j.User)
		}
	}
	return nil
}

// Run executes the scenario and returns its result. Two calls with the
// same Spec and Options produce bit-identical results.
func Run(spec *Spec, opts Options) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	// Reseed the package-default retry jitter so even code paths that fall
	// back to it are covered by the scenario's seed.
	resilience.SeedJitter(spec.Seed)

	decay := spec.Decay
	if decay == nil {
		decay = usage.ExponentialHalfLife{HalfLife: spec.Duration / 6}
	}
	start := spec.Start
	if start.IsZero() {
		start = Start
	}

	kernel := eventsim.New(start)
	h := &Harness{
		Spec:   spec,
		Kernel: kernel,
		Ledger: &Ledger{},
		Decay:  decay,
		// The recorder runs on the sim clock, so span timestamps line up
		// with the violation timestamps in a failure report.
		Spans:   span.NewRecorder(span.Config{Capacity: 1024, Clock: kernel.Clock()}),
		start:   start,
		digest:  fnv.New64a(),
		lastNow: start,
		res:     &Result{Spec: spec, UsageShares: metrics.PerUser{}, SitePriorities: make([]metrics.PerUser, spec.Sites)},
		waits:   metrics.NewWaitCollector(),
	}
	for _, u := range spec.Users {
		h.users = append(h.users, u.Name)
	}
	sort.Strings(h.users)
	for i := range h.res.SitePriorities {
		h.res.SitePriorities[i] = metrics.PerUser{}
	}

	pol, err := spec.InitialPolicy()
	if err != nil {
		return nil, fmt.Errorf("scenario: initial policy: %w", err)
	}
	h.pol = pol
	h.initialPol = pol

	end := start.Add(spec.Duration)
	done := func() bool { return kernel.Now().After(end) }

	// Durable logs for the sites a restart will kill: their usage state
	// must survive into the rebuilt stack. SyncNone matches the scenario's
	// failure model — the process dies but the machine does not, so writes
	// that reached the page cache survive without paying an fsync per
	// simulated commit.
	h.durables = make([]*durability.Log, spec.Sites)
	h.dataDirs = make([]string, spec.Sites)
	defer func() {
		for _, d := range h.durables {
			if d != nil {
				d.Close()
			}
		}
		for _, dir := range h.dataDirs {
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
	}()
	for _, r := range spec.Restarts {
		if r.Site < 0 || r.Site >= spec.Sites {
			return nil, fmt.Errorf("scenario: restart of unknown site %d", r.Site)
		}
		if h.dataDirs[r.Site] != "" {
			continue
		}
		dir, err := os.MkdirTemp("", "aequus-scenario-wal-")
		if err != nil {
			return nil, err
		}
		h.dataDirs[r.Site] = dir
		if h.durables[r.Site], err = h.openLog(r.Site); err != nil {
			return nil, err
		}
	}

	// Assemble one full Aequus stack + cluster + RM per site.
	for i := 0; i < spec.Sites; i++ {
		i := i
		site, err := h.buildSite(i)
		if err != nil {
			return nil, err
		}
		if h.durables[i] != nil {
			// A fresh log opens in the recovering state: the trivial empty
			// replay unblocks commits.
			if err := site.Recover(); err != nil {
				return nil, err
			}
			h.durables[i].MarkReady()
		}
		h.Sites = append(h.Sites, site)

		cl, err := cluster.New(site.Name, spec.CoresPerSite, kernel)
		if err != nil {
			return nil, err
		}
		h.Clusters = append(h.Clusters, cl)

		// The harness's completion observer runs before the schedulers'
		// job-completion plug-ins (registration order), so the ledger has
		// the record within the same event that reports usage to the USS.
		cl.OnComplete(func(j *sched.Job) { h.observeCompletion(i, j) })

		onStart := func(j *sched.Job, priority float64, pass uint64) {
			h.observeStart(i, j, priority, pass)
		}
		switch spec.RM {
		case RMSlurm:
			h.RMs = append(h.RMs, slurm.New(slurm.Config{
				Cluster: cl,
				Priority: &slurm.Multifactor{
					FS:      siteFairshare{h: h, i: i},
					Weights: sched.FairshareOnly(),
				},
				JobComp:              []slurm.JobCompHandler{siteJobComp{h: h, i: i}},
				ReprioritizeInterval: spec.ReprioInterval,
				StrictOrder:          spec.StrictOrder,
				OnStart:              onStart,
			}))
		case RMMaui:
			h.RMs = append(h.RMs, maui.New(maui.Config{
				Cluster: cl,
				Weights: maui.Weights{Fairshare: 1},
				Callouts: maui.Callouts{
					FairsharePriority: func(localUser string) (float64, error) {
						return h.Sites[i].Lib.PriorityForLocalUser(localUser)
					},
					JobCompleted: func(j *sched.Job) {
						_ = h.Sites[i].Lib.JobComplete(j.LocalUser, j.Start, j.End.Sub(j.Start), j.Procs)
					},
				},
				OnStart: onStart,
			}))
		}
	}

	// Peer mesh, with fault injectors spliced into the faulted pull paths.
	// Each (site, peer) pair gets its own injector so concurrent pulls
	// within one exchange round cannot race for a shared PRNG.
	windows := map[[2]int][]faultinject.Window{}
	for _, f := range spec.Faults {
		windows[[2]int{f.Site, f.Peer}] = append(windows[[2]int{f.Site, f.Peer}], faultinject.Window{
			From:  start.Add(f.From),
			Until: start.Add(f.Until),
			Kind:  f.Kind,
			Rate:  f.Rate,
		})
	}
	injectors := map[[2]int]*faultinject.Injector{}
	for key, ws := range windows {
		injectors[key] = faultinject.New(kernel.Clock(), spec.Seed^int64(key[0]*131+key[1]*31+7), ws...)
	}
	h.peers = make([][]uss.Peer, spec.Sites)
	for i := 0; i < spec.Sites; i++ {
		for j := 0; j < spec.Sites; j++ {
			if i == j {
				continue
			}
			var peer uss.Peer = sitePeer{h: h, j: j}
			if inj := injectors[[2]int{i, j}]; inj != nil {
				peer = &faultinject.FaultyPeer{Peer: peer, Inj: inj}
			}
			h.peers[i] = append(h.peers[i], peer)
			h.Sites[i].ConnectPeer(peer)
		}
	}

	// Churn and share edits: policy changes distributed through every PDS,
	// followed by an immediate refresh + cache flush (the administrator
	// "apply now" path).
	for _, u := range spec.Users {
		if u.JoinAt <= 0 {
			continue
		}
		u := u
		kernel.At(start.Add(u.JoinAt), func(time.Time) {
			next := h.pol.Clone()
			if u.Project != "" {
				if _, err := next.Lookup(u.Project); err != nil {
					// First member of the project: create the group node.
					if _, err := next.Add("", u.Project, u.Share); err != nil {
						h.addViolation("harness", "join %s: %v", u.Name, err)
						return
					}
				}
			}
			if _, err := next.Add(u.Project, u.Name, u.Share); err != nil {
				h.addViolation("harness", "join %s: %v", u.Name, err)
				return
			}
			h.applyPolicy(next)
		})
	}
	for _, e := range spec.Edits {
		e := e
		kernel.At(start.Add(e.At), func(time.Time) {
			next := h.pol.Clone()
			n, err := next.Lookup(e.Path)
			if err != nil {
				h.addViolation("harness", "edit %s: %v", e.Path, err)
				return
			}
			n.Share = e.NewShare
			h.applyPolicy(next)
		})
	}

	// Sabotage (tests only): corrupt the pipeline on purpose so the
	// checkers' ability to detect — and to replay bit-identically — is
	// itself tested.
	switch spec.Sabotage {
	case SabotagePhantomUsage:
		kernel.At(start.Add(spec.Duration/2), func(now time.Time) {
			h.Sites[0].USS.ReportJob("phantom", now.Add(-10*time.Minute), 10*time.Minute, 4)
		})
	case SabotageDropCompletion:
		kernel.At(start.Add(spec.Duration/2), func(time.Time) { h.dropArmed = true })
	}

	// Crash-and-restart events, plus periodic WAL compaction for the sites
	// that carry a durable log (so some restarts recover from snapshot +
	// tail and others from a pure WAL replay, depending on timing).
	for i := range h.durables {
		if h.durables[i] == nil {
			continue
		}
		i := i
		period := spec.Duration / 4
		scheduleEvery(kernel, start.Add(period), period,
			func(time.Time) { _ = h.Sites[i].SnapshotDurable() }, done)
	}
	for _, r := range spec.Restarts {
		r := r
		kernel.At(start.Add(r.At), func(now time.Time) { h.restartSite(r.Site, now) })
	}

	// Periodic machinery: per-site skewed exchange, refresh, RM passes,
	// invariant checks and samples. The exchange closures index h.Sites at
	// tick time so they follow a site across restarts.
	//
	// Tie rule: the timers are registered before the workload, so at an
	// instant where a job's submission meets a timer's first tick the tick
	// runs first. Every later tick is re-registered as it fires and so runs
	// after the submissions of its instant.
	for i := range h.Sites {
		i := i
		var skew time.Duration
		if i < len(spec.ExchangeSkew) {
			skew = spec.ExchangeSkew[i]
		}
		scheduleEvery(kernel, start.Add(skew).Add(spec.ExchangeInterval), spec.ExchangeInterval,
			func(time.Time) { _ = h.Sites[i].Exchange() }, done)
	}
	kernel.Every(spec.RefreshInterval, func(time.Time) {
		for _, s := range h.Sites {
			_ = s.Refresh()
		}
	}, done)
	kernel.Every(spec.ReprioInterval, func(now time.Time) {
		for _, rm := range h.RMs {
			rm.Schedule(now)
		}
	}, done)

	checkers := opts.Checkers
	if checkers == nil {
		checkers = DefaultCheckers()
	}
	runCheckers := func(now time.Time) {
		for _, c := range checkers {
			for _, v := range c.Check(h, now) {
				h.violations = append(h.violations, v)
				fmt.Fprintf(h.digest, "V|%s\n", v.String())
			}
		}
	}
	kernel.Every(spec.CheckInterval, func(now time.Time) {
		h.sample(now)
		runCheckers(now)
	}, done)

	// Workload: pre-generated jobs dispatched across sites by the paper's
	// submission host.
	tr := &trace.Trace{}
	for _, js := range spec.Jobs {
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID:       js.ID,
			User:     js.User,
			Submit:   start.Add(js.SubmitOffset),
			Duration: js.Duration,
			Procs:    js.Procs,
		})
	}
	tr.Sort()
	targets := make([]grid.Target, spec.Sites)
	for i := range targets {
		prefix := localPrefix(i)
		targets[i] = grid.Target{
			Name:    h.Sites[i].Name,
			RM:      h.RMs[i],
			MapUser: func(g string) string { return prefix + g },
		}
	}
	var dispatcher grid.Dispatcher = &grid.RoundRobin{}
	if spec.Dispatch != DispatchRoundRobin {
		dispatcher = grid.NewStochastic(spec.Seed + 1)
	}
	host, err := grid.NewSubmitHost(kernel, targets, dispatcher)
	if err != nil {
		return nil, err
	}
	host.LoadTrace(tr)

	// Main loop: step events one at a time so the budget and fail-fast
	// semantics are exact, then drain the queues past the end of the trace
	// (the no-starvation invariant: every submitted job eventually runs).
	budgetLeft := func() bool { return opts.MaxEvents <= 0 || h.events < opts.MaxEvents }
	stop := func() bool { return opts.FailFast && len(h.violations) > 0 }

	for budgetLeft() && !stop() {
		at, ok := kernel.NextAt()
		if !ok || at.After(end) {
			break
		}
		h.step()
	}

	res := h.res
	res.Spans = h.Spans
	finished := budgetLeft() && !stop()
	if finished {
		// Advance the clock to the nominal end (no events remain before it).
		kernel.Run(end)
	}
	h.measure(res)
	if finished {
		h.drain(end, budgetLeft, stop)
	}

	// Final checks at wherever the run stopped (skipped when fail-fast
	// already recorded the terminating violation — re-checking would only
	// duplicate it).
	if !stop() {
		runCheckers(kernel.Now())
	}

	res.Events = h.events
	res.Submitted = host.Submitted()
	res.Violations = h.violations
	if len(res.Violations) > 0 {
		res.TraceDump = span.FormatTail(h.Spans, 40)
	}
	h.finishFingerprint(res)
	return res, nil
}

// openLog opens (or reopens, after a kill) site i's durable log.
func (h *Harness) openLog(i int) (*durability.Log, error) {
	return durability.Open(durability.Options{
		Dir:  h.dataDirs[i],
		Sync: durability.SyncNone,
		// Metrics are diagnostic here; a private registry per open keeps
		// repeated runs in one process from sharing instrument state.
		Metrics: telemetry.NewRegistry(),
		Spans:   h.Spans,
	})
}

// buildSite assembles site i's full Aequus service stack. Called once per
// site at run start and again by every restart event; a rebuilt site boots
// from the never-edited initial policy and recovers subsequent share edits
// from the WAL's MutPolicy records.
func (h *Harness) buildSite(i int) (*core.Site, error) {
	prefix := localPrefix(i)
	mode := SiteMode{Contribute: true, UseGlobal: true}
	if len(h.Spec.Modes) > 0 {
		mode = h.Spec.Modes[i]
	}
	return core.NewSite(core.SiteConfig{
		Name:        fmt.Sprintf("site%02d", i),
		Policy:      h.initialPol,
		Clock:       h.Kernel.Clock(),
		BinWidth:    h.Spec.BinWidth,
		Decay:       h.Decay,
		Contribute:  mode.Contribute,
		UseGlobal:   mode.UseGlobal,
		Projection:  h.Spec.Projection,
		Fairshare:   fairshare.Config{DistanceWeight: h.Spec.DistanceWeight, Resolution: 10000},
		UMSCacheTTL: h.Spec.RefreshInterval,
		FCSCacheTTL: h.Spec.RefreshInterval,
		// Synchronous refresh keeps every recomputation on the event
		// thread — asynchronous stale-while-revalidate would make runs
		// nondeterministic.
		FCSSynchronousRefresh: true,
		LibCacheTTL:           h.Spec.LibTTL,
		ResolveEndpoint: irs.EndpointFunc(func(_, local string) (string, error) {
			if !strings.HasPrefix(local, prefix) {
				return "", fmt.Errorf("scenario: %q does not follow the %q mapping", local, prefix)
			}
			return strings.TrimPrefix(local, prefix), nil
		}),
		Spans:   h.Spans,
		Durable: h.durables[i],
	})
}

// restartSite kills site i's service stack and rebuilds it from the durable
// log, then proves recovery bit-exact against the pre-kill twin: local
// records, remote mirrors, peer watermarks and the published fairshare
// priorities must all match down to the float bits. (Restarts are only
// scheduled without decay, where that identity is exact — an exponential
// decay tracker rebuilt from records differs from an evolved one in the
// last ulps.)
func (h *Harness) restartSite(i int, now time.Time) {
	fmt.Fprintf(h.digest, "R|%d|%d\n", i, now.Unix())
	d := h.durables[i]
	if d == nil {
		h.addViolation("restart-recovery", "site %d has no durable log", i)
		return
	}
	old := h.Sites[i]
	// Publish the doomed site's priorities from this instant's usage, so
	// both twins compute their tables from the same cut at the same
	// simulated time.
	_ = old.Refresh()
	want := old.USS.CaptureState()
	wantTable, wantTableErr := old.FCS.Table()

	// Process death. Closing the handle loses nothing: the scenario's
	// failure model is a dead process, not a dead machine, so writes that
	// reached the page cache survive.
	if err := d.Close(); err != nil {
		h.addViolation("restart-recovery", "site %d: close log: %v", i, err)
		return
	}
	nd, err := h.openLog(i)
	if err != nil {
		h.addViolation("restart-recovery", "site %d: reopen log: %v", i, err)
		return
	}
	h.durables[i] = nd
	site, err := h.buildSite(i)
	if err != nil {
		h.addViolation("restart-recovery", "site %d: rebuild: %v", i, err)
		return
	}
	// Expose the new stack and its peer mesh before replay — peers pulling
	// mid-recovery would be served the frozen snapshot image through it.
	h.Sites[i] = site
	for _, p := range h.peers[i] {
		site.ConnectPeer(p)
	}
	if err := site.Recover(); err != nil {
		h.addViolation("restart-recovery", "site %d: replay: %v", i, err)
		return
	}
	_ = site.Refresh()
	nd.MarkReady()

	got := site.USS.CaptureState()
	h.compareRecords(i, "local", want.Local, got.Local)
	if len(got.Remote) != len(want.Remote) {
		h.addViolation("restart-recovery", "site %d: recovered %d remote mirrors, want %d",
			i, len(got.Remote), len(want.Remote))
	} else {
		for peerSite, recs := range want.Remote {
			h.compareRecords(i, "remote/"+peerSite, recs, got.Remote[peerSite])
		}
	}
	for peerSite, wm := range want.Watermark {
		if !got.Watermark[peerSite].Equal(wm) {
			h.addViolation("restart-recovery", "site %d: watermark[%s] recovered as %s, want %s",
				i, peerSite, got.Watermark[peerSite], wm)
		}
	}

	gotTable, gotTableErr := site.FCS.Table()
	switch {
	case (wantTableErr == nil) != (gotTableErr == nil):
		h.addViolation("restart-recovery", "site %d: table availability diverged: %v vs %v",
			i, wantTableErr, gotTableErr)
	case wantTableErr == nil:
		// The incremental-vs-rebuilt index orders may differ; priorities are
		// compared per user, bit for bit.
		want := map[string]float64{}
		for _, e := range wantTable.Entries {
			want[e.User] = e.Value
		}
		if len(gotTable.Entries) != len(want) {
			h.addViolation("restart-recovery", "site %d: recovered table has %d users, want %d",
				i, len(gotTable.Entries), len(want))
			break
		}
		for _, e := range gotTable.Entries {
			w, ok := want[e.User]
			if !ok {
				h.addViolation("restart-recovery", "site %d: recovered table has unknown user %q", i, e.User)
				continue
			}
			if math.Float64bits(e.Value) != math.Float64bits(w) {
				h.addViolation("restart-recovery", "site %d: priority[%s] recovered as %x, want %x",
					i, e.User, math.Float64bits(e.Value), math.Float64bits(w))
			}
		}
	}
	if err := site.FCS.VerifySnapshot(); err != nil {
		h.addViolation("restart-recovery", "site %d: post-recovery snapshot twin: %v", i, err)
	}
}

// compareRecords asserts two canonical record streams are bit-identical,
// recording at most one violation per stream.
func (h *Harness) compareRecords(i int, what string, want, got []usage.Record) {
	if len(got) != len(want) {
		h.addViolation("restart-recovery", "site %d: %s recovered %d records, want %d",
			i, what, len(got), len(want))
		return
	}
	for k := range want {
		w, g := want[k], got[k]
		if w.User != g.User || !w.IntervalStart.Equal(g.IntervalStart) ||
			math.Float64bits(w.CoreSeconds) != math.Float64bits(g.CoreSeconds) {
			h.addViolation("restart-recovery", "site %d: %s record %d recovered as %+v, want %+v",
				i, what, k, g, w)
			return
		}
	}
}

// step executes one kernel event with clock-sanity accounting.
func (h *Harness) step() {
	before := h.Kernel.Now()
	h.Kernel.Step()
	h.events++
	now := h.Kernel.Now()
	if now.Before(before) || now.Before(h.lastNow) {
		h.addViolation("clock-sanity", "clock moved backwards: %s -> %s", h.lastNow, now)
	}
	h.lastNow = now
}

// drain runs the system past the trace end until every queue is empty and
// every running job completed, bounded by one extra Duration. Leftover
// pending jobs after that are a starvation violation.
func (h *Harness) drain(end time.Time, budgetLeft, stop func() bool) {
	deadline := end.Add(h.Spec.Duration)
	for budgetLeft() && !stop() {
		queued := 0
		running := 0
		for i, rm := range h.RMs {
			queued += rm.QueueLen()
			running += h.Clusters[i].RunningCount()
		}
		if queued == 0 && running == 0 {
			return
		}
		now := h.Kernel.Now()
		for _, rm := range h.RMs {
			rm.Schedule(now)
		}
		at, ok := h.Kernel.NextAt()
		if !ok || at.After(deadline) {
			break
		}
		h.step()
	}
	if !budgetLeft() || stop() {
		return
	}
	queued := 0
	for _, rm := range h.RMs {
		queued += rm.QueueLen()
	}
	if queued > 0 {
		h.addViolation("no-starvation",
			"%d jobs still pending after a full extra run duration of drain", queued)
	}
}

// applyPolicy distributes a new policy tree to every site and forces the
// pre-calculation pipeline to pick it up immediately.
func (h *Harness) applyPolicy(next *policy.Tree) {
	h.pol = next
	for _, s := range h.Sites {
		if err := s.PDS.SetPolicy(next); err != nil {
			h.addViolation("harness", "set policy: %v", err)
			return
		}
		_ = s.Refresh()
		s.Lib.FlushCaches()
	}
}

// observeStart records a dispatch and checks start-time ordering sanity.
// It runs inside the scheduler's start path on the event thread.
func (h *Harness) observeStart(site int, j *sched.Job, priority float64, pass uint64) {
	now := h.Kernel.Now()
	if j.Start.Before(j.Submit) {
		h.addViolation("clock-sanity", "job %d started %s before its submission %s",
			j.ID, j.Start, j.Submit)
	}
	if !j.Start.Equal(now) {
		h.addViolation("clock-sanity", "job %d start %s != event time %s", j.ID, j.Start, now)
	}
	d := Dispatch{
		Site: site, Pass: pass, Priority: priority,
		JobID: j.ID, User: j.GridUser, Procs: j.Procs,
		Submit: j.Submit, Start: j.Start,
	}
	h.dispatches = append(h.dispatches, d)
	fmt.Fprintf(h.digest, "D|%d|%d|%d|%s|%.12g|%d\n",
		site, pass, j.ID, j.GridUser, priority, j.Start.Unix())
}

// observeCompletion feeds the independent ledger and checks completion
// ordering sanity.
func (h *Harness) observeCompletion(site int, j *sched.Job) {
	now := h.Kernel.Now()
	if j.End.Before(j.Start) {
		h.addViolation("clock-sanity", "job %d ended %s before it started %s", j.ID, j.End, j.Start)
	}
	if !j.End.Equal(now) {
		h.addViolation("clock-sanity", "job %d end %s != event time %s", j.ID, j.End, now)
	}
	h.completed++
	h.waits.Record(j.GridUser, j.Start.Sub(j.Submit), j.End.Sub(j.Start))
	fmt.Fprintf(h.digest, "C|%d|%d|%d\n", site, j.ID, j.End.Unix())
	if h.dropArmed {
		// SabotageDropCompletion: lose exactly one record.
		h.dropArmed = false
		return
	}
	h.Ledger.Add(LedgerRecord{
		Site: site, User: j.GridUser, Start: j.Start, Dur: j.End.Sub(j.Start), Procs: j.Procs,
	})
}

// finishFingerprint folds the final state into the digest.
func (h *Harness) finishFingerprint(res *Result) {
	usageTotals := h.CumulativeUsage()
	users := make([]string, 0, len(usageTotals))
	for u := range usageTotals {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		fmt.Fprintf(h.digest, "U|%s|%.9e\n", u, usageTotals[u])
	}
	fmt.Fprintf(h.digest, "E|%d|%d|%d\n", res.Events, res.Submitted, h.completed)
	res.Fingerprint = fmt.Sprintf("%016x", h.digest.Sum64())
}

// scheduleEvery schedules fn at `first` and then every `period`, stopping
// once stop reports true — kernel.Every with an explicit first occurrence,
// which is what per-site exchange skew needs.
func scheduleEvery(k *eventsim.Kernel, first time.Time, period time.Duration, fn eventsim.Event, stop func() bool) {
	var tick eventsim.Event
	tick = func(now time.Time) {
		if stop != nil && stop() {
			return
		}
		fn(now)
		k.After(period, tick)
	}
	k.At(first, tick)
}
