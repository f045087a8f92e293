package core_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/libaequus"
	"repro/internal/policy"
	"repro/internal/services/httpapi"
	"repro/internal/services/irs"
	"repro/internal/usage"
	"repro/internal/wire"
)

// Example_multicluster runs two Aequus sites that exchange usage over HTTP.
// Each site serves the full five-service stack, exactly like an aequusd
// instance. A user burns compute on site B; after a usage exchange, site A's
// fairshare values reflect the global history, which is the whole point of
// decentralized grid-wide fairshare.
func Example_multicluster() {
	pol, err := policy.FromShares(map[string]float64{"alice": 0.5, "bob": 0.5})
	if err != nil {
		panic(err)
	}

	siteA := newExampleSite("site-a", pol)
	siteB := newExampleSite("site-b", pol)
	srvA := httptest.NewServer(httpapi.NewServer(siteA.PDS, siteA.USS, siteA.UMS, siteA.FCS, siteA.IRS))
	defer srvA.Close()
	srvB := httptest.NewServer(httpapi.NewServer(siteB.PDS, siteB.USS, siteB.UMS, siteB.FCS, siteB.IRS))
	defer srvB.Close()

	// Peer the sites over HTTP: each pulls the other's compact usage
	// records.
	siteA.ConnectPeer(httpapi.NewClient(srvB.URL, "site-b"))
	siteB.ConnectPeer(httpapi.NewClient(srvA.URL, "site-a"))

	// A libaequus client for a scheduler co-located with site A, talking
	// HTTP like the real C library's web-service clients.
	clientA := httpapi.NewClient(srvA.URL, "site-a")
	lib := libaequus.New(libaequus.Config{Site: "site-a", CacheTTL: 0},
		clientA, clientA, clientA)

	show := func(label string) {
		pa, err := lib.PriorityForLocalUser("alice")
		if err != nil {
			panic(err)
		}
		pb, err := lib.PriorityForLocalUser("bob")
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-38s alice=%.4f bob=%.4f\n", label, pa, pb)
	}

	show("initial (no usage anywhere):")

	// bob consumes an hour of compute on site B — reported to site B's USS
	// through its HTTP API, as a job-completion plug-in would.
	clientB := httpapi.NewClient(srvB.URL, "site-b")
	if err := clientB.ReportJobBatch([]wire.UsageReport{{User: "bob", Start: time.Now().Add(-time.Hour), DurationSeconds: 3600, Procs: 4}}); err != nil {
		panic(err)
	}
	if err := siteA.Refresh(); err != nil {
		panic(err)
	}
	show("after bob ran on site B (no exchange):")

	// Exchange usage, refresh the pre-calculated fairshare tree.
	if err := siteA.Exchange(context.Background()); err != nil {
		panic(err)
	}
	if err := siteA.Refresh(); err != nil {
		panic(err)
	}
	show("after usage exchange B -> A:")

	fmt.Println("\nsite A now discounts bob for compute he consumed on site B —")
	fmt.Println("the same job is prioritized comparably wherever it is submitted.")
	// Output:
	// initial (no usage anywhere):           alice=0.7500 bob=0.7500
	// after bob ran on site B (no exchange): alice=0.7500 bob=0.7500
	// after usage exchange B -> A:           alice=0.7500 bob=0.2500
	//
	// site A now discounts bob for compute he consumed on site B —
	// the same job is prioritized comparably wherever it is submitted.
}

func newExampleSite(name string, pol *policy.Tree) *core.Site {
	s, err := core.NewSite(core.SiteConfig{
		Name:       name,
		Policy:     pol,
		BinWidth:   time.Minute,
		Decay:      usage.ExponentialHalfLife{HalfLife: 24 * time.Hour},
		Contribute: true,
		UseGlobal:  true,
		ResolveEndpoint: irs.EndpointFunc(func(_, local string) (string, error) {
			return local, nil // identity mapping: local accounts == grid ids
		}),
	})
	if err != nil {
		panic(err)
	}
	return s
}
