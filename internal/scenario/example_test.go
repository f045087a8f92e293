package scenario_test

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Example_bursty is the paper's Section IV-A.5 scenario as a library user
// would run it: generate the bursty synthetic workload (U3's job share
// raised to 45.5%, burst starting after one third of the run), drive the
// emulated multi-cluster testbed under every invariant checker, and watch
// the system re-balance when the burst hits.
func Example_bursty() {
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
		panic(err)
	}

	fmt.Println("bursty trace characteristics (paper: jobs 45.5/6.5/45.5/3%, usage 47/38.5/12/2.5%):")
	for _, s := range trace.UserStats(tr) {
		fmt.Printf("  %-5s jobs %5.1f%%  usage %5.1f%%\n", s.User, 100*s.JobShare, 100*s.UsageShare)
	}

	res, err := scenario.Run(scenario.TraceSpec(tr, sites, cores, start, duration, model.UsageFractions(), 7), scenario.Options{})
	if err != nil {
		panic(err)
	}
	if res.Failed() {
		panic(fmt.Sprintf("invariant violated: %s", res.Violations[0]))
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
		// An example's output holds no trailing blanks: a line with no bar
		// ends at the value.
		line := fmt.Sprintf("  %4.0f min  %+.3f  %s", u3.Times[i].Sub(start).Minutes(), v, bar)
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("\nmax U3 priority %.3f — bounded by k·(1+share) = 0.5·(1+0.12) = 0.56\n", maxSeen)
	fmt.Printf("utilization %.1f%%, %d of %d jobs completed\n",
		100*res.Utilization, res.Completed, res.Submitted)
	// Output:
	// bursty trace characteristics (paper: jobs 45.5/6.5/45.5/3%, usage 47/38.5/12/2.5%):
	//   u65   jobs  45.5%  usage  47.0%
	//   u30   jobs   6.5%  usage  38.5%
	//   u3    jobs  45.5%  usage  12.0%
	//   uoth  jobs   2.5%  usage   2.5%
	//
	// U3 priority over the run (burst arrives after ~1/3 of the test):
	//      3 min  +0.560  ############################
	//     18 min  +0.560  ############################
	//     33 min  +0.560  ############################
	//     48 min  +0.560  ############################
	//     63 min  +0.560  ############################
	//     78 min  +0.560  ############################
	//     93 min  +0.560  ############################
	//    108 min  +0.560  ############################
	//    123 min  +0.560  ############################
	//    138 min  +0.347  ##################
	//    153 min  +0.118  ######
	//    168 min  -0.015
	//    183 min  -0.003
	//    198 min  -0.002
	//    213 min  +0.058  ###
	//    228 min  +0.211  ###########
	//    243 min  +0.253  #############
	//    258 min  +0.028  ##
	//    273 min  -0.009
	//    288 min  -0.005
	//    303 min  -0.011
	//    318 min  +0.052  ###
	//    333 min  -0.000
	//    348 min  -0.006
	//
	// max U3 priority 0.560 — bounded by k·(1+share) = 0.5·(1+0.12) = 0.56
	// utilization 92.0%, 5731 of 6000 jobs completed
}
