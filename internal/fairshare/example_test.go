package fairshare_test

import (
	"fmt"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/vector"
)

// ExampleCompute shows the core calculation: a flat policy, historical
// usage, and the resulting projected priorities.
func ExampleCompute() {
	pol, _ := policy.FromShares(map[string]float64{
		"alice": 0.6,
		"bob":   0.4,
	})
	usage := map[string]float64{"alice": 100, "bob": 900}
	tree := fairshare.Compute(pol, usage, fairshare.DefaultConfig())

	prio := tree.Priorities(vector.Percental{})
	fmt.Printf("alice %.3f\n", prio["alice"])
	fmt.Printf("bob   %.3f\n", prio["bob"])
	// Output:
	// alice 0.750
	// bob   0.250
}

// ExampleTree_Vector extracts a user's fairshare vector with balance-point
// padding, like /LQ in the paper's Figure 3.
func ExampleTree_Vector() {
	pol := policy.NewTree()
	pol.Add("", "lq", 1)
	pol.Add("", "grid", 3)
	pol.Add("/grid", "u1", 1)
	pol.Add("/grid", "u2", 1)

	tree := fairshare.Compute(pol, map[string]float64{
		"lq": 0, "u1": 50, "u2": 50,
	}, fairshare.DefaultConfig())

	v, _ := tree.Vector("lq")
	fmt.Println(v.PadTo(tree.Depth(), tree.Config.Balance()))
	// Output:
	// 8125:5000
}

// ExampleMaxPriority reproduces the paper's bursty-test bound: a user with
// target share 0.12 under k = 0.5 cannot exceed priority 0.56.
func ExampleMaxPriority() {
	bound := fairshare.MaxPriority(fairshare.DefaultConfig(), 0.12)
	fmt.Printf("%.2f\n", bound)
	// Output:
	// 0.56
}

// Example_quickstart is the fairshare calculation as a library, no services:
// the hierarchical policy of the paper's Figure 3, historical usage, the
// fairshare tree, per-user fairshare vectors, and scalar scheduler
// priorities under all three projection algorithms.
func Example_quickstart() {
	// A site policy: 30% to HQ, 10% to LQ, 60% mounted to the grid, which
	// subdivides into two projects with their own users.
	pol := policy.NewTree()
	for _, n := range []struct {
		parent, name string
		share        float64
	}{
		{"", "hq", 30}, {"", "lq", 10}, {"", "grid", 60},
		{"/grid", "projA", 75}, {"/grid", "projB", 25},
		{"/grid/projA", "u1", 25}, {"/grid/projA", "u2", 75},
		{"/grid/projB", "u3", 100},
	} {
		if _, err := pol.Add(n.parent, n.name, n.share); err != nil {
			panic(err)
		}
	}

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
			panic("no vector for " + user)
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
	// Output:
	// fairshare vectors (resolution 0-9999, balance point 5000):
	//   hq   4779                (padded 4779:5000:5000, leaf priority -0.044)
	//   lq   7216                (padded 7216:5000:5000, leaf priority +0.443)
	//   u1   5052:4826:4125      (padded 5052:4826:4125, leaf priority -0.175)
	//   u2   5052:4826:7042      (padded 5052:4826:7042, leaf priority +0.408)
	//   u3   5052:5871:5000      (padded 5052:5871:5000, leaf priority +0.000)
	//
	// projected priorities in [0,1], the value an RM dispatches a user's jobs by:
	//   user   dictionary      bitwise    percental
	//   hq         0.1667       0.4785       0.4558
	//   lq         0.8333       0.7207       0.5403
	//   u1         0.3333       0.5058       0.4106
	//   u2         0.5000       0.5058       0.5717
	//   u3         0.6667       0.5062       0.5216
	//
	// lq has consumed almost nothing against its 10% share, so the
	// order-preserving projections (dictionary, bitwise) rank it first.
	// percental may rank a deep under-consuming user like u2 above lq —
	// the subgroup-isolation trade-off of Table I.
}
