// Package scenario is the deterministic whole-system simulation harness
// and the one driver of every simulated run: it composes the event kernel,
// virtual clusters, both resource-manager substrates, all five Aequus
// services (via core.Site) and the fault injector into seed-reproducible
// multi-site runs — randomized scenarios (Generate) and the paper's
// trace-driven testbed runs (TraceSpec) alike — and layers continuous
// invariant checkers over every step.
//
// Everything random — topology, job mix, user churn, share-tree edits,
// peer faults, exchange-interval skew — derives from a single rand.Source
// seeded by Spec.Seed, so any failure replays bit-identically:
//
//	AEQUUS_SEED=<seed> [AEQUUS_EVENTS=<n>] go test ./internal/scenario -run TestScenarioReplay
//
// The fuzzer (TestScenarioFuzz) runs many seeds, shrinks a failure to the
// smallest failing event prefix, and prints exactly that command.
package scenario

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/policy"
	"repro/internal/usage"
	"repro/internal/vector"
)

// Start is the simulated epoch of every scenario whose Spec leaves Start
// zero. Scenarios differ only by seed, never by wall-clock state.
var Start = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)

// RMKind selects the local resource manager substrate.
type RMKind string

// Supported resource managers.
const (
	RMSlurm RMKind = "slurm"
	RMMaui  RMKind = "maui"
)

// DispatchKind selects how the submit host places jobs on sites; Run
// builds the dispatcher, so a Spec stays plain data that replays.
type DispatchKind string

// Dispatch strategies: a uniformly random site per job, seeded from
// Spec.Seed (the paper's submission host, and what the zero value means),
// or the sites in turn.
const (
	DispatchStochastic DispatchKind = "stochastic"
	DispatchRoundRobin DispatchKind = "round-robin"
)

// SiteMode is one site's participation in the global exchange, the knobs of
// the partial-participation experiment: whether it serves its usage records
// to peers, and whether it prioritizes on global usage.
type SiteMode struct {
	Contribute, UseGlobal bool
}

// UserSpec is one grid user in the scenario's population.
type UserSpec struct {
	// Name is the grid identity (also the policy leaf name).
	Name string
	// Share is the raw policy share (normalized by the policy tree).
	Share float64
	// Project is the enclosing policy group ("" = directly under the
	// root). Grouping exercises hierarchical share trees.
	Project string
	// JoinAt is the offset from Start at which the user joins the grid
	// (its policy leaf is added and its first job may be submitted).
	// Zero means present from the beginning.
	JoinAt time.Duration
}

// JobSpec is one pre-generated job of the scenario's workload.
type JobSpec struct {
	ID           int64
	User         string
	SubmitOffset time.Duration
	Duration     time.Duration
	Procs        int
}

// ShareEdit changes one policy node's share mid-run — the administrator
// action the PDS distributes.
type ShareEdit struct {
	// At is the offset from Start at which the edit is applied.
	At time.Duration
	// Path is the policy path of the edited node (e.g. "projA/u2").
	Path string
	// NewShare replaces the node's raw share.
	NewShare float64
}

// FaultSpec schedules one fault window on the exchange path from one
// site's USS to a peer's.
type FaultSpec struct {
	// Site is the pulling site, Peer the remote site index.
	Site, Peer int
	// From/Until bound the window as offsets from Start.
	From, Until time.Duration
	// Kind is the injected fault (Error, Timeout, Reset or Flap; Latency
	// is a no-op under the deadline-free sim resolve and is not generated).
	Kind faultinject.Kind
	// Rate is the Flap probability.
	Rate float64
}

// RestartSpec schedules one kill-and-recover of a site's Aequus service
// stack mid-run. The cluster and its resource manager keep running (they are
// separate processes from aequusd); the site's services are torn down and
// rebuilt from the durable WAL and snapshots, and recovery must reproduce
// the pre-kill usage state and published priorities bit-identically.
type RestartSpec struct {
	// Site is the restarted site index.
	Site int
	// At is the offset from Start of the kill.
	At time.Duration
}

// SabotageKind deliberately corrupts the system mid-run so tests can prove
// the invariant checkers detect it and that the failure replays
// bit-identically from its seed.
type SabotageKind int

// Sabotage modes.
const (
	// SabotageNone runs the scenario honestly.
	SabotageNone SabotageKind = iota
	// SabotagePhantomUsage reports usage for a ghost user directly to
	// site 0's USS, bypassing the ledger — the ledger-equivalence checker
	// must fire.
	SabotagePhantomUsage
	// SabotageDropCompletion silently drops one job completion from the
	// independent ledger — the ledger-equivalence checker must fire from
	// the other direction.
	SabotageDropCompletion
)

// Spec is a fully materialized scenario: replaying a Spec is deterministic,
// and Generate(seed) always yields the same Spec for the same seed.
type Spec struct {
	Seed int64

	// Topology.
	Sites        int
	CoresPerSite int
	RM           RMKind
	StrictOrder  bool
	// Modes sets each site's participation in the exchange (nil: every
	// site contributes and uses global usage).
	Modes []SiteMode
	// Dispatch places jobs on sites (zero: stochastic).
	Dispatch DispatchKind

	// Timing.
	// Start is the simulated epoch (zero: the package's Start).
	Start            time.Time
	Duration         time.Duration
	BinWidth         time.Duration
	ExchangeInterval time.Duration
	// ExchangeSkew offsets each site's exchange ticks so rounds do not
	// align across sites — the exchange-interval skew of the update-delay
	// analysis.
	ExchangeSkew    []time.Duration
	RefreshInterval time.Duration
	LibTTL          time.Duration
	ReprioInterval  time.Duration
	// CheckInterval is how often the invariant checkers run and the usage
	// shares and priorities are sampled.
	CheckInterval time.Duration
	// ShareWindow is the sliding window of the sampled usage shares (zero:
	// Duration/6).
	ShareWindow time.Duration

	// Population and workload.
	Projects []string
	Users    []UserSpec
	Jobs     []JobSpec

	// Perturbations.
	Edits  []ShareEdit
	Faults []FaultSpec

	// Fairshare parameters.
	DistanceWeight float64
	// Projection is the vector projection (nil: percental).
	Projection vector.Projection

	// Decay is the sites' usage decay (nil: an exponential half-life of
	// Duration/6). Either way the sites carry usage sums at a reference
	// instant, so only users with fresh completions move between pulls and
	// the FCS refreshes incrementally; usage.None is what makes recovery
	// from a crash exactly reproducible (see Restarts).
	Decay usage.Decay

	// Restarts kill and recover individual sites' service stacks mid-run.
	// Only generated without decay (usage.None): under exponential decay a
	// freshly rebuilt tracker and one that evolved through the run differ
	// in the last ulps, so bit-identical recovery is only a meaningful
	// target without decay.
	Restarts []RestartSpec
	// Crash marks a spec produced by GenerateCrash, so replay tooling
	// regenerates it through the same generator (AEQUUS_CRASH=1).
	Crash bool

	// Sabotage corrupts the run on purpose (tests only; Generate never
	// sets it).
	Sabotage SabotageKind
}

// ConvergenceEligible reports whether the convergence invariant is
// meaningful for this scenario: demand is calibrated to the policy shares
// and nothing perturbs the system mid-run (no faults, edits or churn).
func (s *Spec) ConvergenceEligible() bool {
	if len(s.Faults) > 0 || len(s.Edits) > 0 || len(s.Restarts) > 0 || s.Sabotage != SabotageNone {
		return false
	}
	for _, u := range s.Users {
		if u.JoinAt > 0 {
			return false
		}
	}
	return true
}

// InitialPolicy builds the policy tree at Start: projects and the users
// present from the beginning. Joined-later users are added by churn events.
func (s *Spec) InitialPolicy() (*policy.Tree, error) {
	t := policy.NewTree()
	projShare := map[string]float64{}
	initialMembers := map[string]int{}
	for _, u := range s.Users {
		if u.Project != "" {
			projShare[u.Project] += u.Share
			if u.JoinAt <= 0 {
				initialMembers[u.Project]++
			}
		}
	}
	for _, p := range s.Projects {
		// A project without any initial member would be a childless group
		// node — Leaves() would misread it as a user. Such projects are
		// created by the join event of their first member instead.
		if projShare[p] <= 0 || initialMembers[p] == 0 {
			continue
		}
		if _, err := t.Add("", p, projShare[p]); err != nil {
			return nil, err
		}
	}
	for _, u := range s.Users {
		if u.JoinAt > 0 {
			continue
		}
		if _, err := t.Add(u.Project, u.Name, u.Share); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Generate materializes the scenario for a seed. Every random draw comes
// from one rand.Source, so the mapping seed → Spec is a pure function.
func Generate(seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	s := &Spec{Seed: seed}

	// Topology: small enough that a run costs tens of milliseconds, varied
	// enough to cover both substrates, strict and backfill dispatch, and
	// 2–4-site meshes.
	s.Sites = 2 + rng.Intn(3)
	s.CoresPerSite = 8 + 4*rng.Intn(4)
	if rng.Intn(2) == 0 {
		s.RM = RMSlurm
		s.StrictOrder = rng.Intn(4) == 0
	} else {
		s.RM = RMMaui
	}

	// Timing: 2–4 simulated hours; service intervals jittered around the
	// paper runs' fractional defaults (TraceSpec), with per-site exchange skew.
	s.Duration = time.Duration(2+rng.Intn(3)) * time.Hour
	base := s.Duration / 240
	s.BinWidth = s.Duration / time.Duration(180+60*rng.Intn(3))
	s.ExchangeInterval = base * time.Duration(1+rng.Intn(3))
	s.ExchangeSkew = make([]time.Duration, s.Sites)
	for i := range s.ExchangeSkew {
		s.ExchangeSkew[i] = time.Duration(rng.Int63n(int64(s.ExchangeInterval)))
	}
	s.RefreshInterval = base * time.Duration(1+rng.Intn(2))
	s.LibTTL = s.RefreshInterval / 2
	s.ReprioInterval = base * time.Duration(1+rng.Intn(2))
	s.CheckInterval = s.Duration / 48
	s.DistanceWeight = 0.25 * float64(1+rng.Intn(3))

	// Population: 3–6 users, optionally grouped into two projects, with
	// a 30% chance of one extra user joining mid-run (churn).
	nUsers := 3 + rng.Intn(4)
	hierarchical := rng.Intn(5) < 2
	if hierarchical {
		s.Projects = []string{"projA", "projB"}
	}
	for i := 0; i < nUsers; i++ {
		u := UserSpec{
			Name:  userName(i),
			Share: 0.5 + 2*rng.Float64(),
		}
		if hierarchical {
			u.Project = s.Projects[rng.Intn(len(s.Projects))]
		}
		s.Users = append(s.Users, u)
	}
	if rng.Intn(10) < 3 {
		u := UserSpec{
			Name:   userName(nUsers),
			Share:  0.5 + 2*rng.Float64(),
			JoinAt: time.Duration(float64(s.Duration) * (0.2 + 0.3*rng.Float64())),
		}
		if hierarchical {
			u.Project = s.Projects[rng.Intn(len(s.Projects))]
		}
		s.Users = append(s.Users, u)
	}

	// Perturbations: share edits (30%) and exchange-path faults (40%).
	if rng.Intn(10) < 3 {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			u := s.Users[rng.Intn(nUsers)]
			path := u.Name
			if u.Project != "" {
				path = u.Project + "/" + u.Name
			}
			s.Edits = append(s.Edits, ShareEdit{
				At:       time.Duration(float64(s.Duration) * (0.2 + 0.5*rng.Float64())),
				Path:     path,
				NewShare: u.Share * (0.5 + 1.5*rng.Float64()),
			})
		}
	}
	if rng.Intn(10) < 4 {
		kinds := []faultinject.Kind{faultinject.Error, faultinject.Timeout, faultinject.Reset, faultinject.Flap}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			site := rng.Intn(s.Sites)
			peer := rng.Intn(s.Sites)
			if peer == site {
				peer = (peer + 1) % s.Sites
			}
			from := time.Duration(float64(s.Duration) * (0.1 + 0.6*rng.Float64()))
			s.Faults = append(s.Faults, FaultSpec{
				Site: site, Peer: peer,
				From:  from,
				Until: from + time.Duration(float64(s.Duration)*(0.05+0.15*rng.Float64())),
				Kind:  kinds[rng.Intn(len(kinds))],
				Rate:  0.3 + 0.6*rng.Float64(),
			})
		}
	}

	s.generateJobs(rng)

	// A quarter of the scenarios run without usage decay: the plain-sum
	// side of the usage pipeline, and the only setting in which restarts
	// are drawn.
	noDecay := rng.Intn(4) == 0
	if noDecay {
		s.Decay = usage.None{}
	}

	// Half of the decay-free scenarios also get one organic crash-and-restart,
	// so durable recovery is continuously fuzzed alongside everything else.
	// (This draw must stay the last one: it is conditional, and anything
	// added after it would shift across seeds depending on the decay.)
	if noDecay && rng.Intn(2) == 0 {
		s.Restarts = append(s.Restarts, RestartSpec{
			Site: rng.Intn(s.Sites),
			At:   time.Duration(float64(s.Duration) * (0.3 + 0.5*rng.Float64())),
		})
	}
	return s
}

// GenerateCrash materializes the crash-gauntlet variant of a seed: the
// scenario Generate yields, forced to usage.None, with its organic restart
// draw replaced by 1–3 seed-deterministic kill-and-restart events drawn
// from a derived source. GenerateCrash(seed) is a pure function of seed.
func GenerateCrash(seed int64) *Spec {
	s := Generate(seed)
	s.Decay = usage.None{}
	s.Crash = true
	s.Restarts = nil
	rng := rand.New(rand.NewSource(seed ^ 0x0c4a54))
	for n := 1 + rng.Intn(3); n > 0; n-- {
		s.Restarts = append(s.Restarts, RestartSpec{
			Site: rng.Intn(s.Sites),
			At:   time.Duration(float64(s.Duration) * (0.25 + 0.6*rng.Float64())),
		})
	}
	sort.Slice(s.Restarts, func(i, j int) bool { return s.Restarts[i].At < s.Restarts[j].At })
	return s
}

// generateJobs builds the job mix: per-user Poisson-ish arrivals whose
// total demand is calibrated so each user's workload share matches their
// effective policy share (the paper's testbed discipline — policy targets
// equal trace usage fractions), at 75–95% of grid capacity.
func (s *Spec) generateJobs(rng *rand.Rand) {
	load := 0.75 + 0.2*rng.Float64()
	capacity := float64(s.Sites*s.CoresPerSite) * s.Duration.Seconds()

	// Effective share = user share / total raw share, weighted by the
	// fraction of the run the user is active (so late joiners demand
	// proportionally less and convergence targets stay meaningful for the
	// always-active population).
	var totalShare float64
	for _, u := range s.Users {
		totalShare += u.Share
	}

	var id int64
	maxDur := s.Duration / 8
	for _, u := range s.Users {
		active := s.Duration - u.JoinAt
		budget := u.Share / totalShare * capacity * load * (float64(active) / float64(s.Duration))

		// Draw shapes until the accumulated units can carry the budget
		// without any job hitting the duration cap: the longest unit (1.2)
		// scaled by budget/units must stay under maxDur, otherwise clamping
		// silently cuts a high-share user's demand below its calibrated
		// budget and the convergence target goes stale. At least 20 jobs per
		// user; the hard ceiling only guards degenerate draws.
		type shape struct {
			offset  time.Duration
			durUnit float64
			procs   int
		}
		minUnits := 1.2 * budget / maxDur.Seconds()
		var shapes []shape
		var units float64
		for len(shapes) < 20 || (units < minUnits && len(shapes) < 800) {
			procs := 1
			switch d := rng.Intn(20); {
			case d < 1:
				procs = 4
			case d < 4:
				procs = 2
			}
			if procs > s.CoresPerSite {
				procs = s.CoresPerSite
			}
			sh := shape{
				offset:  u.JoinAt + time.Duration(rng.Int63n(int64(float64(active)*0.9))),
				durUnit: 0.2 + rng.Float64(),
				procs:   procs,
			}
			shapes = append(shapes, sh)
			units += sh.durUnit * float64(sh.procs)
		}
		secPerUnit := budget / units
		for _, sh := range shapes {
			dur := time.Duration(sh.durUnit * secPerUnit * float64(time.Second))
			if dur > maxDur {
				dur = maxDur
			}
			if dur < time.Second {
				dur = time.Second
			}
			id++
			s.Jobs = append(s.Jobs, JobSpec{
				ID:           id,
				User:         u.Name,
				SubmitOffset: sh.offset,
				Duration:     dur,
				Procs:        sh.procs,
			})
		}
	}
}

func userName(i int) string {
	return "u" + string(rune('a'+i%26))
}
