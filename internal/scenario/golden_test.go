package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/fingerprints.golden instead of diffing
// against it: go test ./internal/scenario -run TestFingerprintsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestFingerprintsGolden pins the run fingerprints of Generate seeds 1–12
// and GenerateCrash seeds 1–6. A fingerprint digests every dispatch,
// completion, violation and the final usage totals, so a change to the
// simulation driver that reorders or alters any of them shows up here even
// when every invariant still holds.
func TestFingerprintsGolden(t *testing.T) {
	t.Parallel()
	type run struct {
		kind string
		seed int64
		spec *Spec
		fp   string
	}
	var runs []*run
	for seed := int64(1); seed <= 12; seed++ {
		runs = append(runs, &run{kind: "generate", seed: seed, spec: Generate(seed)})
	}
	for seed := int64(1); seed <= 6; seed++ {
		runs = append(runs, &run{kind: "crash", seed: seed, spec: GenerateCrash(seed)})
	}
	// The runs share nothing, so they run in parallel; the group returns
	// once all of them have.
	t.Run("runs", func(t *testing.T) {
		for _, r := range runs {
			r := r
			t.Run(fmt.Sprintf("%s=%d", r.kind, r.seed), func(t *testing.T) {
				t.Parallel()
				res, err := Run(r.spec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				r.fp = res.Fingerprint
			})
		}
	})
	var buf bytes.Buffer
	for _, r := range runs {
		fmt.Fprintf(&buf, "%s %d %s\n", r.kind, r.seed, r.fp)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fingerprints drifted.\n--- got ---\n%s--- want ---\n%s(regenerate with -update if the change is intended)", got, want)
	}
}
