package slurm_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/services/irs"
	"repro/internal/slurm"
	"repro/internal/usage"
)

// Example_slurmIntegration puts the Aequus priority and job-completion
// plug-ins inside a SLURM-like scheduler and compares them against the
// classic local-fairshare baseline (Section III-A).
//
// Two clusters run the same workload on a simulated clock. In the Aequus
// configuration the multifactor priority plug-in calls libaequus for a
// global fairshare factor and the job-completion plug-in reports usage back;
// in the baseline each cluster sees only its own history. A user who hogs
// cluster 1 keeps winning on cluster 2 under local fairshare — and stops
// winning under Aequus.
func Example_slurmIntegration() {
	fmt.Println("=== Aequus plug-ins (global fairshare) ===")
	runTwoClusters(true)
	fmt.Println("\n=== local fairshare baseline ===")
	runTwoClusters(false)
	fmt.Println("\nWith Aequus, greedy's history on cluster-1 follows him to cluster-2,")
	fmt.Println("so modest's jobs run first there. The local baseline forgets at the")
	fmt.Println("cluster boundary and lets greedy win on cluster-2 again.")
	// Output:
	// === Aequus plug-ins (global fairshare) ===
	// cluster-2 completion order: [greedy modest modest modest greedy greedy]
	//
	// === local fairshare baseline ===
	// cluster-2 completion order: [greedy modest greedy modest greedy modest]
	//
	// With Aequus, greedy's history on cluster-1 follows him to cluster-2,
	// so modest's jobs run first there. The local baseline forgets at the
	// cluster boundary and lets greedy win on cluster-2 again.
}

func runTwoClusters(aequus bool) {
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	kernel := eventsim.New(start)
	pol, err := policy.FromShares(map[string]float64{"greedy": 0.5, "modest": 0.5})
	if err != nil {
		panic(err)
	}

	// Two single-core clusters so priority order fully determines who runs.
	var sites []*core.Site
	mkSched := func(name string) (*slurm.Scheduler, *cluster.Cluster) {
		cl, err := cluster.New(name, 1, kernel)
		if err != nil {
			panic(err)
		}
		var fs slurm.FairshareProvider
		var jobcomp []slurm.JobCompHandler
		if aequus {
			site, err := core.NewSite(core.SiteConfig{
				Name: name, Policy: pol, Clock: kernel.Clock(),
				BinWidth: time.Minute, Contribute: true, UseGlobal: true,
				Decay: usage.ExponentialHalfLife{HalfLife: 12 * time.Hour},
				ResolveEndpoint: irs.EndpointFunc(func(_, local string) (string, error) {
					return local, nil
				}),
			})
			if err != nil {
				panic(err)
			}
			sites = append(sites, site)
			fs = slurm.AequusFairshare{Lib: site.Lib}
			jobcomp = []slurm.JobCompHandler{slurm.AequusJobComp{Lib: site.Lib}}
		} else {
			lf := slurm.NewLocalFairshare(map[string]float64{"greedy": 0.5, "modest": 0.5},
				usage.ExponentialHalfLife{HalfLife: 12 * time.Hour}, time.Minute, kernel.Clock())
			fs = lf
			jobcomp = []slurm.JobCompHandler{lf}
		}
		s := slurm.New(slurm.Config{
			Cluster:  cl,
			Priority: &slurm.Multifactor{FS: fs},
			JobComp:  jobcomp,
		})
		return s, cl
	}

	s1, _ := mkSched("cluster-1")
	s2, c2 := mkSched("cluster-2")
	if aequus {
		core.FullMesh(sites)
		kernel.Every(time.Minute, func(time.Time) {
			for _, s := range sites {
				_ = s.Exchange(context.Background())
				_ = s.Refresh()
			}
		}, nil)
	}

	// Phase 1: greedy monopolizes cluster-1 for two hours.
	id := int64(0)
	for i := 0; i < 8; i++ {
		id++
		s1.Submit(&sched.Job{ID: id, LocalUser: "greedy", GridUser: "greedy",
			Procs: 1, Duration: 15 * time.Minute, Submit: kernel.Now()})
	}
	kernel.Run(start.Add(2 * time.Hour))

	// Phase 2: both users submit to cluster-2 simultaneously.
	var order []string
	c2.OnComplete(func(j *sched.Job) { order = append(order, j.LocalUser) })
	for i := 0; i < 3; i++ {
		id++
		s2.Submit(&sched.Job{ID: id, LocalUser: "greedy", GridUser: "greedy",
			Procs: 1, Duration: 10 * time.Minute, Submit: kernel.Now()})
		id++
		s2.Submit(&sched.Job{ID: id, LocalUser: "modest", GridUser: "modest",
			Procs: 1, Duration: 10 * time.Minute, Submit: kernel.Now()})
	}
	kernel.Run(start.Add(4 * time.Hour))

	fmt.Printf("cluster-2 completion order: %v\n", order)
}
