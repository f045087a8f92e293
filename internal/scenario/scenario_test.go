package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/services/fcs"
	"repro/internal/testbed"
)

// fuzzSeeds returns how many seeds the fuzz sweep covers: AEQUUS_FUZZ_SEEDS
// when set (CI runs 50+), a fast default otherwise.
func fuzzSeeds(t *testing.T) int {
	if v := os.Getenv("AEQUUS_FUZZ_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad AEQUUS_FUZZ_SEEDS %q: %v", v, err)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 12
}

// writeArtifact persists a failing scenario's reproduction data under
// AEQUUS_ARTIFACT_DIR (no-op when unset) so CI can upload it.
func writeArtifact(t *testing.T, spec *Spec, res *Result, events int) {
	dir := os.Getenv("AEQUUS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed: %d\nrepro: %s\n", spec.Seed, ReproCommand(spec, events))
	fmt.Fprintf(&b, "topology: %d sites x %d cores, rm=%s strict=%v\n",
		spec.Sites, spec.CoresPerSite, spec.RM, spec.StrictOrder)
	fmt.Fprintf(&b, "duration=%s users=%d jobs=%d edits=%d faults=%d\n",
		spec.Duration, len(spec.Users), len(spec.Jobs), len(spec.Edits), len(spec.Faults))
	fmt.Fprintf(&b, "events=%d submitted=%d completed=%d fingerprint=%s\n",
		res.Events, res.Submitted, res.Completed, res.Fingerprint)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	if res.TraceDump != "" {
		fmt.Fprintf(&b, "%s\n", res.TraceDump)
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.txt", spec.Seed))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
	}
}

// TestScenarioFuzz is the fuzz gauntlet: N random seeds, each a full
// multi-site scenario under continuous invariant checking. A failing seed
// is shrunk to the smallest failing event prefix and reported with the
// exact one-command reproduction.
func TestScenarioFuzz(t *testing.T) {
	n := fuzzSeeds(t)
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := Generate(seed)
			rec := &refreshModeRecorder{}
			res, err := Run(spec, Options{FailFast: true, Checkers: append(DefaultCheckers(), rec)})
			if err != nil {
				t.Fatalf("seed %d: run error: %v", seed, err)
			}
			if !res.Failed() {
				// The snapshot-twin checker has only proven something about
				// the incremental engine if that is what refreshed — under
				// the default decay (three seeds in four) as without it.
				if rec.modes[fcs.RefreshIncremental] == 0 {
					t.Errorf("seed %d (noDecay=%v): no incremental refresh sampled: %v", seed, spec.NoDecay, rec.modes)
				}
				return
			}
			events, small, runs, serr := Shrink(spec, Options{})
			if serr != nil {
				t.Fatalf("seed %d: shrink error: %v", seed, serr)
			}
			writeArtifact(t, spec, small, events)
			t.Errorf("seed %d: %d violation(s); shrunk to %d events in %d runs\nfirst: %s\nreproduce with:\n  %s",
				seed, len(res.Violations), events, runs, small.Violations[0], ReproCommand(spec, events))
		})
	}
}

// TestScenarioReplay replays one scenario from the environment — the
// reproduction entry point the fuzzer and the harness print:
//
//	AEQUUS_SEED=7 [AEQUUS_EVENTS=123] [AEQUUS_CRASH=1] [AEQUUS_SABOTAGE=1] go test ./internal/scenario -run TestScenarioReplay
//
// AEQUUS_CRASH=1 regenerates the spec through GenerateCrash (the crash
// gauntlet's generator) instead of Generate. It runs the scenario twice and
// fails with full details if any invariant is violated, additionally
// proving the two runs are bit-identical.
func TestScenarioReplay(t *testing.T) {
	sv := os.Getenv("AEQUUS_SEED")
	if sv == "" {
		t.Skip("set AEQUUS_SEED to replay a scenario")
	}
	seed, err := strconv.ParseInt(sv, 10, 64)
	if err != nil {
		t.Fatalf("bad AEQUUS_SEED %q: %v", sv, err)
	}
	opts := Options{FailFast: true}
	if ev := os.Getenv("AEQUUS_EVENTS"); ev != "" {
		opts.MaxEvents, err = strconv.Atoi(ev)
		if err != nil {
			t.Fatalf("bad AEQUUS_EVENTS %q: %v", ev, err)
		}
	}
	generate := Generate
	if os.Getenv("AEQUUS_CRASH") == "1" {
		generate = GenerateCrash
	}
	spec := generate(seed)
	if sb := os.Getenv("AEQUUS_SABOTAGE"); sb != "" {
		k, err := strconv.Atoi(sb)
		if err != nil {
			t.Fatalf("bad AEQUUS_SABOTAGE %q: %v", sb, err)
		}
		spec.Sabotage = SabotageKind(k)
	}
	first, err := Run(spec, opts)
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	second, err := Run(generate(seed).withSabotage(spec.Sabotage), opts)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if first.Fingerprint != second.Fingerprint {
		t.Errorf("replay diverged: fingerprints %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if first.Failed() {
		var b strings.Builder
		for _, v := range first.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		if first.TraceDump != "" {
			fmt.Fprintf(&b, "%s\n", first.TraceDump)
		}
		t.Fatalf("seed %d (events=%d): %d violation(s):\n%s", seed, first.Events, len(first.Violations), b.String())
	}
	t.Logf("seed %d: clean run, %d events, fingerprint %s", seed, first.Events, first.Fingerprint)
}

// withSabotage returns the spec with the sabotage mode applied (helper for
// replaying sabotaged scenarios from a fresh Generate).
func (s *Spec) withSabotage(k SabotageKind) *Spec {
	s.Sabotage = k
	return s
}

// TestScenarioDeterminism proves the bit-identical-replay property the
// whole harness rests on: same seed, same options → same fingerprint, same
// event count, same violations, across both RM substrates.
func TestScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 8, 21} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			a, err := Run(Generate(seed), Options{})
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(Generate(seed), Options{})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
			}
			if a.Events != b.Events || a.Submitted != b.Submitted || a.Completed != b.Completed {
				t.Errorf("counters differ: (%d,%d,%d) vs (%d,%d,%d)",
					a.Events, a.Submitted, a.Completed, b.Events, b.Submitted, b.Completed)
			}
			if !reflect.DeepEqual(a.Violations, b.Violations) {
				t.Errorf("violations differ:\n%v\nvs\n%v", a.Violations, b.Violations)
			}
		})
	}
}

// TestScenarioPrefixDeterminism proves the shrinker's lever: running with a
// smaller event budget replays an exact prefix — dispatch/completion counts
// at the truncation point match the full run's state at the same point.
func TestScenarioPrefixDeterminism(t *testing.T) {
	spec := Generate(5)
	full, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	budget := full.Events / 3
	a, err := Run(Generate(5), Options{MaxEvents: budget})
	if err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	b, err := Run(Generate(5), Options{MaxEvents: budget})
	if err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
	if a.Events != budget || b.Events != budget {
		t.Fatalf("prefix runs executed %d/%d events, want %d", a.Events, b.Events, budget)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("prefix fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
}

// sabotageCases are the deliberate corruptions whose detection (and
// bit-identical replay) the suite proves.
var sabotageCases = []struct {
	name string
	kind SabotageKind
}{
	{"phantom-usage", SabotagePhantomUsage},
	{"drop-completion", SabotageDropCompletion},
}

// TestSabotageDetected proves the ledger-equivalence checker catches a
// corrupted accounting pipeline from both directions, that the failure
// shrinks to a smaller event prefix, and that the shrunk failure replays
// bit-identically — the acceptance property of the whole harness.
func TestSabotageDetected(t *testing.T) {
	for _, tc := range sabotageCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const seed = 11
			mk := func() *Spec { return Generate(seed).withSabotage(tc.kind) }
			res, err := Run(mk(), Options{FailFast: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Failed() {
				t.Fatalf("sabotage %v went undetected", tc.kind)
			}
			found := false
			for _, v := range res.Violations {
				if v.Invariant == "ledger-equivalence" {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("expected a ledger-equivalence violation, got %v", res.Violations)
			}

			events, small, _, err := Shrink(mk(), Options{})
			if err != nil {
				t.Fatalf("shrink: %v", err)
			}
			if events <= 0 || events > res.Events {
				t.Fatalf("shrunk budget %d out of range (full failure at %d events)", events, res.Events)
			}
			if !small.Failed() {
				t.Fatal("shrunk run does not fail")
			}

			// The printed reproduction must replay the identical failure.
			cmd := ReproCommand(mk(), events)
			for _, frag := range []string{
				fmt.Sprintf("AEQUUS_SEED=%d", seed),
				fmt.Sprintf("AEQUUS_EVENTS=%d", events),
				fmt.Sprintf("AEQUUS_SABOTAGE=%d", tc.kind),
				"TestScenarioReplay",
			} {
				if !strings.Contains(cmd, frag) {
					t.Errorf("repro command %q missing %q", cmd, frag)
				}
			}
			a, err := Run(mk(), Options{FailFast: true, MaxEvents: events})
			if err != nil {
				t.Fatalf("replay a: %v", err)
			}
			b, err := Run(mk(), Options{FailFast: true, MaxEvents: events})
			if err != nil {
				t.Fatalf("replay b: %v", err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("sabotage replay diverged: %s vs %s", a.Fingerprint, b.Fingerprint)
			}
			if !a.Failed() || !reflect.DeepEqual(a.Violations, b.Violations) {
				t.Errorf("replayed violations differ or vanished:\n%v\nvs\n%v", a.Violations, b.Violations)
			}
		})
	}
}

// TestGenerateDeterministicAndBounded pins Generate's contract: a pure
// function of the seed, with every scenario inside the documented bounds.
func TestGenerateDeterministicAndBounded(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if a.Sites < 2 || a.Sites > 4 {
			t.Errorf("seed %d: %d sites outside [2,4]", seed, a.Sites)
		}
		if a.CoresPerSite < 8 || a.CoresPerSite > 20 {
			t.Errorf("seed %d: %d cores outside [8,20]", seed, a.CoresPerSite)
		}
		if a.RM != testbed.RMSlurm && a.RM != testbed.RMMaui {
			t.Errorf("seed %d: unknown RM %q", seed, a.RM)
		}
		if len(a.ExchangeSkew) != a.Sites {
			t.Errorf("seed %d: %d skews for %d sites", seed, len(a.ExchangeSkew), a.Sites)
		}
		for i, sk := range a.ExchangeSkew {
			if sk < 0 || sk >= a.ExchangeInterval {
				t.Errorf("seed %d: skew[%d]=%s outside [0,%s)", seed, i, sk, a.ExchangeInterval)
			}
		}
		if len(a.Users) < 3 {
			t.Errorf("seed %d: only %d users", seed, len(a.Users))
		}
		if len(a.Jobs) == 0 {
			t.Errorf("seed %d: no jobs", seed)
		}
		users := map[string]bool{}
		for _, u := range a.Users {
			users[u.Name] = true
		}
		for _, j := range a.Jobs {
			if !users[j.User] {
				t.Errorf("seed %d: job %d owned by unknown user %q", seed, j.ID, j.User)
			}
			if j.Procs < 1 || j.Procs > a.CoresPerSite {
				t.Errorf("seed %d: job %d procs %d outside [1,%d]", seed, j.ID, j.Procs, a.CoresPerSite)
			}
			if j.Duration <= 0 || j.SubmitOffset < 0 || j.SubmitOffset > a.Duration {
				t.Errorf("seed %d: job %d has bad timing (%s at +%s)", seed, j.ID, j.Duration, j.SubmitOffset)
			}
		}
		for _, f := range a.Faults {
			if f.Site == f.Peer || f.Site >= a.Sites || f.Peer >= a.Sites {
				t.Errorf("seed %d: bad fault endpoints %d->%d", seed, f.Site, f.Peer)
			}
		}
		if _, err := a.InitialPolicy(); err != nil {
			t.Errorf("seed %d: initial policy: %v", seed, err)
		}
	}
}
