// Bursty workload: the paper's Section IV-A.5 scenario as a library user
// would run it — generate the bursty synthetic workload (U3's job share
// raised to 45.5%, burst starting after one third of the run), drive the
// emulated multi-cluster testbed under every invariant checker, and watch
// the system re-balance when the burst hits.
//
// Run with: go run ./examples/bursty
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const (
		sites = 4
		cores = 24
		jobs  = 6000
	)
	duration := 6 * time.Hour
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

	model := workload.Bursty2012(duration)
	tr, err := model.TestbedTrace(jobs, start, duration, 7, sites*cores, 0.95)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("bursty trace characteristics (paper: jobs 45.5/6.5/45.5/3%, usage 47/38.5/12/2.5%):")
	for _, s := range trace.UserStats(tr) {
		fmt.Printf("  %-5s jobs %5.1f%%  usage %5.1f%%\n", s.User, 100*s.JobShare, 100*s.UsageShare)
	}

	res, err := scenario.Run(scenario.TraceSpec(tr, sites, cores, start, duration, model.UsageFractions(), 7), scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if res.Failed() {
		log.Fatalf("invariant violated: %s", res.Violations[0])
	}

	fmt.Println("\nU3 priority over the run (burst arrives after ~1/3 of the test):")
	u3 := res.Priorities[workload.U3]
	maxSeen := 0.0
	for i := 0; i < u3.Len(); i += u3.Len() / 24 {
		v := u3.Values[i]
		if v > maxSeen {
			maxSeen = v
		}
		bar := ""
		for b := 0.0; b < v; b += 0.02 {
			bar += "#"
		}
		fmt.Printf("  %4.0f min  %+.3f  %s\n", u3.Times[i].Sub(start).Minutes(), v, bar)
	}
	fmt.Printf("\nmax U3 priority %.3f — bounded by k·(1+share) = 0.5·(1+0.12) = 0.56\n", maxSeen)
	fmt.Printf("utilization %.1f%%, %d of %d jobs completed\n",
		100*res.Utilization, res.Completed, res.Submitted)
}
