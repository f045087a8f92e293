// Quickstart: the Aequus fairshare calculation as a library, no services.
//
// It builds the hierarchical policy of the paper's Figure 3, feeds in
// historical usage, computes the fairshare tree, extracts per-user fairshare
// vectors and projects them to scalar scheduler priorities with all three
// projection algorithms.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/vector"
)

func main() {
	// A site policy: 30% to HQ, 10% to LQ, 60% mounted to the grid, which
	// subdivides into two projects with their own users.
	pol := policy.NewTree()
	must(pol.Add("", "hq", 30))
	must(pol.Add("", "lq", 10))
	must(pol.Add("", "grid", 60))
	must(pol.Add("/grid", "projA", 75))
	must(pol.Add("/grid", "projB", 25))
	must(pol.Add("/grid/projA", "u1", 25))
	must(pol.Add("/grid/projA", "u2", 75))
	must(pol.Add("/grid/projB", "u3", 100))

	// Decayed historical usage in core-seconds per user (normally produced
	// by the USS/UMS pipeline from job completions).
	usage := map[string]float64{
		"hq": 40_000, "lq": 2_000,
		"u1": 30_000, "u2": 20_000, "u3": 11_000,
	}

	// Compute the fairshare tree: k = 0.5 blends the absolute and relative
	// distance metrics equally; values live in 0..9999 with balance 5000.
	tree := fairshare.Compute(pol, usage, fairshare.DefaultConfig())

	fmt.Println("fairshare vectors (resolution 0-9999, balance point 5000):")
	for _, user := range []string{"hq", "lq", "u1", "u2", "u3"} {
		vec, ok := tree.Vector(user)
		if !ok {
			log.Fatalf("no vector for %s", user)
		}
		padded := vec.PadTo(tree.Depth(), tree.Config.Balance())
		prio, _ := tree.LeafPriority(user)
		fmt.Printf("  %-3s  %-18v  (padded %v, leaf priority %+.3f)\n", user, vec, padded, prio)
	}

	fmt.Println("\nprojected priorities in [0,1], the value an RM dispatches a user's jobs by:")
	fmt.Printf("  %-4s %12s %12s %12s\n", "user", "dictionary", "bitwise", "percental")
	projections := vector.Projections()
	results := make([]map[string]float64, len(projections))
	for i, p := range projections {
		results[i] = tree.Priorities(p)
	}
	for _, user := range []string{"hq", "lq", "u1", "u2", "u3"} {
		fmt.Printf("  %-4s", user)
		for i := range projections {
			fmt.Printf(" %12.4f", results[i][user])
		}
		fmt.Println()
	}

	fmt.Println("\nlq has consumed almost nothing against its 10% share, so the")
	fmt.Println("order-preserving projections (dictionary, bitwise) rank it first.")
	fmt.Println("percental may rank a deep under-consuming user like u2 above lq —")
	fmt.Println("the subgroup-isolation trade-off of Table I.")
}

func must(_ string, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
