// Command testbed runs the emulated nation-wide environment: N virtual
// clusters, each with a full Aequus stack and a SLURM- or Maui-like local
// scheduler, driven by a synthetic workload (generated in-process or read
// from a trace file). The run is a scenario.Spec under every invariant
// checker. It prints the usage-share and priority series plus summary
// statistics, and exits 1 after printing the violations if an invariant
// broke.
//
// Example (the paper's baseline configuration):
//
//	testbed -sites 6 -cores 40 -jobs 43200 -duration 6h -load 0.95
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vector"
	"repro/internal/workload"
)

func main() {
	var (
		logFormat = flag.String("log-format", "text", "log output format: text|json")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		sites     = flag.Int("sites", 6, "number of clusters")
		cores     = flag.Int("cores", 40, "cores per cluster")
		jobs      = flag.Int("jobs", 43200, "synthetic trace size (ignored with -trace)")
		duration  = flag.Duration("duration", 6*time.Hour, "test length")
		load      = flag.Float64("load", 0.95, "offered load fraction")
		traceFile = flag.String("trace", "", "read workload from a trace file instead of generating")
		model     = flag.String("model", "baseline", "workload model: baseline|bursty")
		policyArg = flag.String("policy", "trace", "policy targets: trace|nonoptimal")
		rm        = flag.String("rm", "slurm", "resource manager substrate: slurm|maui")
		proj      = flag.String("projection", "percental", "vector projection")
		k         = flag.Float64("distance-weight", 0.5, "fairshare distance weight k")
		seed      = flag.Int64("seed", 42, "random seed")
		partial   = flag.Bool("partial", false, "run the partial-participation site modes")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		slog.Error("testbed: bad logging flags", "err", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

	var m workload.Model
	switch *model {
	case "baseline":
		m = workload.NationalGrid2012(*duration)
	case "bursty":
		m = workload.Bursty2012(*duration)
	default:
		fatal("unknown model", "model", *model)
	}

	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal("opening trace", "err", err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			fatal("reading trace", "err", err)
		}
	} else {
		var err error
		if tr, err = m.TestbedTrace(*jobs, start, *duration, *seed, *sites**cores, *load); err != nil {
			fatal("generating workload", "err", err)
		}
	}

	var targets map[string]float64
	switch *policyArg {
	case "trace":
		targets = m.UsageFractions()
	case "nonoptimal":
		targets = workload.NonOptimalShares()
	default:
		fatal("unknown policy", "policy", *policyArg)
	}

	projection, ok := vector.ByName(*proj)
	if !ok {
		fatal("unknown projection", "projection", *proj)
	}

	spec := scenario.TraceSpec(tr, *sites, *cores, start, *duration, targets, *seed)
	spec.DistanceWeight = *k
	spec.Projection = projection
	spec.RM = scenario.RMKind(*rm)
	if *partial && *sites >= 2 {
		// The second-last site only reads global usage, the last one
		// prioritizes on local usage only.
		spec.Modes = make([]scenario.SiteMode, *sites)
		for i := range spec.Modes {
			spec.Modes[i] = scenario.SiteMode{Contribute: i != *sites-2, UseGlobal: i != *sites-1}
		}
	}

	res, err := scenario.Run(spec, scenario.Options{})
	if err != nil {
		fatal("run failed", "err", err)
	}

	users := res.UsageShares.Users()
	sort.Strings(users)
	fmt.Print("minute  ")
	for _, u := range users {
		fmt.Printf("%7s", u+"↑")
	}
	for _, u := range users {
		fmt.Printf("%8s", u+"ᵖ")
	}
	fmt.Println()
	if len(users) > 0 && res.UsageShares[users[0]] != nil {
		ref := res.UsageShares[users[0]]
		step := ref.Len() / 36
		if step < 1 {
			step = 1
		}
		for i := 0; i < ref.Len(); i += step {
			at := ref.Times[i]
			fmt.Printf("%6.0f  ", at.Sub(start).Minutes())
			for _, u := range users {
				fmt.Printf("%7.3f", res.UsageShares[u].Values[i])
			}
			for _, u := range users {
				if p := res.Priorities[u]; p != nil {
					fmt.Printf("%8.3f", p.At(at))
				}
			}
			fmt.Println()
		}
	}
	fmt.Printf("\nsubmitted=%d completed=%d queued=%d utilization=%.3f sustained=%.0f/min peak=%.0f/min\n",
		res.Submitted, res.Completed, res.QueuedAtEnd, res.Utilization, res.SustainedRate, res.PeakRate)
	if res.Failed() {
		for _, v := range res.Violations {
			fmt.Println("violation:", v)
		}
		fmt.Print(res.TraceDump)
		os.Exit(1)
	}
}
