package pds_test

import (
	"fmt"
	"net/http/httptest"
	"os"

	"repro/internal/policy"
	"repro/internal/services/httpapi"
	"repro/internal/services/pds"
)

// Example_policyMount shows policy mounting, the PDS feature that lets
// "local administrators assign parts of the resources to one or more grids
// while retaining full control over the infrastructure" (Section II-A).
//
// A national PDS serves the grid-wide policy (how the grid's share divides
// among virtual organizations). Two sites mount that policy under their own
// roots with different local shares, over HTTP. When the national policy
// changes, a refresh propagates it — without the sites ever editing their
// local trees.
func Example_policyMount() {
	// The nationally managed grid policy: two VOs with their users.
	national := nationalPolicy(3)
	nationalPDS := pds.New(national, nil)
	// Only the policy endpoints are registered.
	srv := httptest.NewServer(httpapi.NewServer(nationalPDS, nil, nil, nil, nil))
	defer srv.Close()

	// Two sites with their own local users; each grants the grid a
	// different slice of its resources.
	siteA := newSitePDS("site-a", 40)
	siteB := newSitePDS("site-b", 80)
	if err := siteA.Mount("", "grid", 60, srv.URL+"|/"); err != nil {
		panic(err)
	}
	if err := siteB.Mount("", "grid", 20, srv.URL+"|/"); err != nil {
		panic(err)
	}

	fmt.Println("site-a policy (grid granted 60%):")
	printPolicy(siteA)
	fmt.Println("site-b policy (grid granted 20%):")
	printPolicy(siteB)

	// The national administration rebalances the VOs; the sites refresh.
	fmt.Println("national policy change: vo-alice share raised to equal vo-atlas")
	if err := nationalPDS.SetPolicy(nationalPolicy(1)); err != nil {
		panic(err)
	}
	if err := siteA.RefreshMounts(); err != nil {
		panic(err)
	}
	if err := siteB.RefreshMounts(); err != nil {
		panic(err)
	}
	fmt.Println("\nafter refresh, site-a:")
	printPolicy(siteA)

	fmt.Println("each site kept its own local/grid split; only the grid-internal")
	fmt.Println("subdivision — managed nationally — changed under the mount point.")
	// Output:
	// site-a policy (grid granted 60%):
	// # path share
	// /local-site-a 0.4
	// /grid 0.6
	// /grid/vo-atlas 0.75
	// /grid/vo-atlas/u-atlas-1 0.5
	// /grid/vo-atlas/u-atlas-2 0.5
	// /grid/vo-alice 0.25
	// /grid/vo-alice/u-alice-1 1
	//
	// site-b policy (grid granted 20%):
	// # path share
	// /local-site-b 0.8
	// /grid 0.2
	// /grid/vo-atlas 0.75
	// /grid/vo-atlas/u-atlas-1 0.5
	// /grid/vo-atlas/u-atlas-2 0.5
	// /grid/vo-alice 0.25
	// /grid/vo-alice/u-alice-1 1
	//
	// national policy change: vo-alice share raised to equal vo-atlas
	//
	// after refresh, site-a:
	// # path share
	// /local-site-a 0.4
	// /grid 0.6
	// /grid/vo-atlas 0.5
	// /grid/vo-atlas/u-atlas-1 0.5
	// /grid/vo-atlas/u-atlas-2 0.5
	// /grid/vo-alice 0.5
	// /grid/vo-alice/u-alice-1 1
	//
	// each site kept its own local/grid split; only the grid-internal
	// subdivision — managed nationally — changed under the mount point.
}

// nationalPolicy is the grid policy of two VOs, vo-atlas holding atlasShare
// against vo-alice's 1.
func nationalPolicy(atlasShare float64) *policy.Tree {
	t := policy.NewTree()
	for _, n := range []struct {
		parent, name string
		share        float64
	}{
		{"", "vo-atlas", atlasShare}, {"", "vo-alice", 1},
		{"/vo-atlas", "u-atlas-1", 1}, {"/vo-atlas", "u-atlas-2", 1},
		{"/vo-alice", "u-alice-1", 1},
	} {
		if _, err := t.Add(n.parent, n.name, n.share); err != nil {
			panic(err)
		}
	}
	return t
}

func newSitePDS(name string, localShare float64) *pds.Service {
	local := policy.NewTree()
	if _, err := local.Add("", "local-"+name, localShare); err != nil {
		panic(err)
	}
	return pds.New(local, httpapi.PolicyFetcher(nil))
}

func printPolicy(p *pds.Service) {
	if err := policy.WriteText(os.Stdout, p.Policy().Normalize()); err != nil {
		panic(err)
	}
	fmt.Println()
}
