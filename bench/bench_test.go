package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/libaequus"
)

// The decorators must forward the optional interfaces their consumers
// type-assert: libaequus asks its source for PriorityBatch, http.Client asks
// its transport for CloseIdleConnections.
var (
	_ libaequus.BatchFairshareSource      = (*tracedSource)(nil)
	_ interface{ CloseIdleConnections() } = (*countingTransport)(nil)
	_ http.RoundTripper                   = (*countingTransport)(nil)
)

func genInputs(seed uint64) string {
	fp := newFingerprint()
	r := newRNG(seed)
	_, users := genPolicy(r.split(1), fp, 3, 4, 5)
	end := simEpoch
	for d := 0; d < 3; d++ {
		genHistorySlice(r, fp, len(users), 2, 3, d, end)
	}
	for i := 0; i < 50; i++ {
		genJob(r, fp, r.intn(len(users)), end, time.Minute)
	}
	return fp.String()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := genInputs(7), genInputs(7), genInputs(8)
	if a != b {
		t.Errorf("same seed gave fingerprints %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same fingerprint %s", a)
	}
}

func TestHistoryGivesEveryUserItsShare(t *testing.T) {
	const users, perUser, days = 60, 4, 14
	seen := make([]int, users)
	for d := 0; d < days; d++ {
		for _, j := range genHistorySlice(newRNG(1), newFingerprint(), users, perUser, days, d, simEpoch) {
			seen[j.user]++
			lo, hi := simEpoch.Add(-time.Duration(days-d)*24*time.Hour), simEpoch.Add(-time.Duration(days-1-d)*24*time.Hour)
			if !j.end.After(lo) || j.end.After(hi) {
				t.Fatalf("slice %d: job ends %v, outside (%v, %v]", d, j.end, lo, hi)
			}
		}
	}
	for u, n := range seen {
		if n != perUser {
			t.Fatalf("user %d got %d completions, want %d", u, n, perUser)
		}
	}
}

func TestQuantilesAreExact(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Errorf("max of 1..4 = %v, want 4", got)
	}
	if got := quantile([]float64{5}, 0.9); got != 5 {
		t.Errorf("p90 of one sample = %v, want 5", got)
	}
}

// The tail percentile needs at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{6, 0.5, false}, {30, 0.5, false}, {39, 0.5, false}, {40, 0.75, true}, {99, 0.75, true},
		{100, 0.90, true}, {200, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	s := summarize(make([]float64, 30), "ms")
	if s.TailP != 0 || s.N != 30 {
		t.Errorf("30 samples reported tail p%v (n=%d), want none", s.TailP, s.N)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := spanRec{Start: 0, End: 100}
	kids := []spanRec{{Start: 10, End: 60}, {Start: 40, End: 80}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 20 { // covered: 10..80 and 90..100
		t.Errorf("self time = %d, want 20", got)
	}
}

func writeReport(t *testing.T, dir, name string, roundMS, rps float64, failed int) string {
	t.Helper()
	rep := report{Workloads: map[string]*workloadEntry{}}
	for _, sp := range workloads {
		rep.Workloads[sp.name] = &workloadEntry{Untraced: &result{Attempted: 100, Failed: failed, EndToEnd: map[string]summary{
			"round_ms":       {Value: roundMS, Unit: "ms", Better: "lower", Bound: 0.10},
			"throughput_rps": {Value: rps, Unit: "1/s", Better: "higher", Bound: 0.10},
		}}}
	}
	path := filepath.Join(dir, name)
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareEnforcesBounds(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 100, 1000, 0)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, c := range []struct {
		name    string
		roundMS float64
		rps     float64
		failed  int
		want    bool
	}{
		{"same", 100, 1000, 0, true},
		{"within", 109, 910, 0, true},
		{"better", 50, 2000, 0, true},
		{"slower", 111, 1000, 0, false},
		{"less throughput", 100, 890, 0, false},
		{"failures", 100, 1000, 1, false},
	} {
		got, err := compareFiles(devnull, base, writeReport(t, dir, "new.json", c.roundMS, c.rps, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: compare = %v, want %v", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in report.go and
// workload.go are what the program prints. They must say the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), program says %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var gated []e2eDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics listed, program gates %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range b.EndToEnd {
		d := gated[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program says %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, program says %+v", i, m, d)
		}
	}
}

// The smoke run drives every workload through both passes at toy sizes:
// every stage, decorator and output check executes.
func TestQuickSmokeRun(t *testing.T) {
	out := t.TempDir()
	rep, err := runAll(1, 0, true, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range workloads {
		e := rep.Workloads[sp.name]
		for _, res := range []*result{e.Untraced, e.Traced} {
			if res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s (traced=%v): %d of %d operations failed: %v", sp.name, res.Traced, res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range endToEnd {
				if d.gated && !(res.EndToEnd[d.name].Value > 0) {
					t.Errorf("%s (traced=%v): %s = %v, want > 0", sp.name, res.Traced, d.name, res.EndToEnd[d.name].Value)
				}
			}
		}
		if e.Untraced.Fingerprint != e.Traced.Fingerprint {
			t.Errorf("%s: input fingerprints differ between passes: %s, %s", sp.name, e.Untraced.Fingerprint, e.Traced.Fingerprint)
		}
		if e.Untraced.StateFingerprint != e.Traced.StateFingerprint {
			t.Errorf("%s: priorities differ between passes: %s, %s", sp.name, e.Untraced.StateFingerprint, e.Traced.StateFingerprint)
		}
		if (e.Untraced.StateFingerprint == "") != sp.realClock {
			t.Errorf("%s: priorities fingerprint %q, want one exactly on sim-clock workloads", sp.name, e.Untraced.StateFingerprint)
		}
		// A decorator that hid an optional interface would change which
		// refresh path runs; the split refresh must take the same one.
		mode := func(res *result) (full, incr bool) {
			return res.PerLayer["fcs.refresh_full"].Value > 0, res.PerLayer["fcs.refresh_incremental"].Value > 0
		}
		uf, ui := mode(e.Untraced)
		tf, ti := mode(e.Traced)
		if uf != tf || ui != ti || (!tf && !ti) {
			t.Errorf("%s: refresh modes full/incremental untraced %v/%v, traced %v/%v", sp.name, uf, ui, tf, ti)
		}
		for _, d := range perLayer {
			if _, ok := e.Traced.PerLayer[d.name]; !ok {
				t.Errorf("%s: traced pass did not report %s", sp.name, d.name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
	}
	// One batch call, not one lookup per user: the traced source kept
	// PriorityBatch visible to libaequus.
	if got := rep.Workloads["fed_sparse"].Traced.PerLayer["httpapi.fairshare_batch_ms"]; got.N == 0 || got.Value == 0 {
		t.Errorf("fed_sparse: no batch round trip was traced: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(out, "results.json")); err != nil {
		t.Error(err)
	}
	// Same seed, same inputs: a second run must reproduce the fingerprints.
	again, err := runOne(workloads[0], 1, 0, false, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if first := rep.Workloads[workloads[0].name].Untraced; again.Fingerprint != first.Fingerprint || again.StateFingerprint != first.StateFingerprint {
		t.Errorf("second run of %s: inputs %s priorities %s, first run had %s and %s", workloads[0].name,
			again.Fingerprint, again.StateFingerprint, first.Fingerprint, first.StateFingerprint)
	}
	other, err := runOne(workloads[0], 2, 0, false, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint == again.Fingerprint {
		t.Errorf("seeds 1 and 2 gave the same inputs %s", other.Fingerprint)
	}
}
