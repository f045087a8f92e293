// Command bench times the Figure 11 delay chain — job completes at site A,
// USS, exchange, UMS, FCS pre-calculation, libaequus, re-prioritization at
// site B — end to end and layer by layer, under aequusd's default
// configuration. See README.md in this directory.
//
//	go run ./bench -seed 1                      all workloads, untraced then traced
//	go run ./bench -workload fed_sparse -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare old.json new.json   exit 1 past a regression bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// report is what a full run writes to results.json and -compare reads.
type report struct {
	Stamp     stamp                     `json:"stamp"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

type workloadEntry struct {
	Why      string  `json:"why"`
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced"`
	// TraceOverheadShare is traced over untraced median round time, minus 1.
	TraceOverheadShare float64 `json:"trace_overhead_share"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only and end with one JSON line (fed_sparse, fed_bulk, serve_mixed, refresh_1m); empty runs all four, untraced then traced")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 15, "timed part of an untraced run; each workload also runs its minimum number of rounds")
		trace    = flag.Int("trace", 0, "with -workload: 1 records spans and reports the per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke-test sizes: 2 sites x 500 users, 3 rounds")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, traces and scratch data")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results.json files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOne(sp, *seed, *seconds, *trace == 1, *quick, *outDir)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		fmt.Println(string(res.driverLine()))
	default:
		rep, err := runAll(*seed, *seconds, *quick, *outDir)
		if err != nil {
			fatal(err)
		}
		if !rep.ok() {
			fmt.Println("\nFAILED: see the failures above")
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one pass of one workload. A traced pass measures a third of
// the rounds: it exists for the per-layer breakdown, and the probes that
// follow its rounds take the rest of its time.
func runOne(sp spec, seed uint64, seconds float64, traced, quick bool, outDir string) (*result, error) {
	if quick {
		sp, seconds = sp.quick(), 0
	}
	// Both passes fingerprint the rounds both surely run.
	sp.fpRounds = sp.warmup + (sp.minRounds+2)/3
	if traced {
		seconds /= 3
		sp.minRounds = (sp.minRounds + 2) / 3
	}
	return runWorkload(sp, seed, seconds, traced, outDir)
}

// runAll is the full run: every workload untraced (the end-to-end figures),
// then every workload traced (the per-layer figures), results and traces
// written to outDir.
func runAll(seed uint64, seconds float64, quick bool, outDir string) (*report, error) {
	rep := &report{Stamp: newStamp(seed), Seconds: seconds, Workloads: map[string]*workloadEntry{}}
	fmt.Printf("bench: seed=%d commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d\n", seed, rep.Stamp.Commit,
		rep.Stamp.GoVersion, rep.Stamp.CPUModel, rep.Stamp.NProc, rep.Stamp.GOMAXPROCS)
	for _, traced := range []bool{false, true} {
		for _, sp := range workloads {
			res, err := runOne(sp, seed, seconds, traced, quick, outDir)
			if err != nil {
				return nil, err
			}
			res.print(os.Stdout)
			if !traced {
				rep.Workloads[sp.name] = &workloadEntry{Why: sp.why, Untraced: res}
				continue
			}
			e := rep.Workloads[sp.name]
			e.Traced = res
			if u := e.Untraced.EndToEnd["round_ms"].Value; u > 0 {
				e.TraceOverheadShare = res.EndToEnd["round_ms"].Value/u - 1
			}
			fmt.Printf("  %-34s %14.6g %-6s\n", "trace_overhead_share", e.TraceOverheadShare, "ratio")
			// Decorators and the split refresh must not change what the
			// system computes (no such comparison exists on the real clock).
			if e.Untraced.StateFingerprint != res.StateFingerprint {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("priorities differ between passes: untraced %s, traced %s",
					e.Untraced.StateFingerprint, res.StateFingerprint))
				fmt.Printf("  FAILED: %s\n", res.Failures[len(res.Failures)-1])
			}
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, rep); err != nil {
		return nil, err
	}
	fmt.Printf("\nwrote %s and %d trace files\n", path, len(workloads))
	return rep, nil
}

func (rep *report) ok() bool {
	for _, e := range rep.Workloads {
		if e.Untraced.Failed > 0 || e.Traced.Failed > 0 {
			return false
		}
	}
	return true
}

// driverLine is the last line of a single-workload run: the metrics listed
// in BENCHMARK.json, end-to-end ones from an untraced pass and per-layer
// ones from a traced pass.
func (res *result) driverLine() []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Traced {
		for _, def := range perLayer {
			metrics[def.name] = value{res.PerLayer[def.name].Value, def.unit}
		}
	} else {
		for _, def := range endToEnd {
			if def.gated {
				metrics[def.name] = value{res.EndToEnd[def.name].Value, def.unit}
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	return line
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change and the bound, and reports whether every change is within its
// bound. Bounds and directions come from the first (baseline) file.
func compareFiles(w *os.File, basePath, newPath string) (bool, error) {
	var base, next report
	for path, into := range map[string]*report{basePath: &base, newPath: &next} {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %8s %7s\n", "workload", "metric", "base", "new", "change", "bound")
	for _, sp := range workloads {
		b, n := base.Workloads[sp.name], next.Workloads[sp.name]
		if b == nil || n == nil || b.Untraced == nil || n.Untraced == nil {
			fmt.Fprintf(w, "%-12s missing from one of the files\n", sp.name)
			ok = false
			continue
		}
		for _, def := range endToEnd {
			bm, has := b.Untraced.EndToEnd[def.name]
			if !has {
				continue
			}
			nm := n.Untraced.EndToEnd[def.name]
			worse, verdict := worsening(bm, nm.Value), ""
			if worse > bm.Bound {
				verdict, ok = "  REGRESSION", false
			}
			fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n", sp.name, def.name,
				bm.Value, nm.Value, 100*(nm.Value/bm.Value-1), 100*bm.Bound, verdict)
		}
		if n.Untraced.Failed > 0 {
			fmt.Fprintf(w, "%-12s %d of %d operations failed  REGRESSION\n", sp.name, n.Untraced.Failed, n.Untraced.Attempted)
			ok = false
		}
	}
	return ok, nil
}

// worsening is by how much of the baseline median the new value is worse
// (negative when it is better).
func worsening(base summary, v float64) float64 {
	if base.Value == 0 || math.IsNaN(v) {
		return math.Inf(1)
	}
	if base.Better == "higher" {
		return (base.Value - v) / base.Value
	}
	return (v - base.Value) / base.Value
}
