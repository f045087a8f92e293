package fcs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/vector"
	"repro/internal/wire"
)

// deepPolicy builds a chain of groups levels deep with a leaf beside every
// group and two at the bottom: leaves of every depth in one segment, and
// paths longer than a descent's stack buffer.
func deepPolicy(levels int) (*policy.Tree, []string) {
	t := policy.NewTree()
	var leaves []string
	add := func(parent, name string, share float64) {
		if _, err := t.Add(parent, name, share); err != nil {
			panic(err)
		}
	}
	parent := ""
	for l := 0; l < levels; l++ {
		leaf := fmt.Sprintf("side%d", l)
		add(parent, leaf, 1+float64(l%3))
		add(parent, "g", 2)
		leaves = append(leaves, leaf)
		parent += "/g"
	}
	add(parent, "bottom0", 1)
	add(parent, "bottom1", 3)
	return t, append(leaves, "bottom0", "bottom1")
}

// publishedService serves tree and its index ix under proj from a fresh
// snapshot, as a refresh would publish it.
func publishedService(proj vector.Projection, pol *policy.Tree, tree *fairshare.Tree, ix *fairshare.Index) *Service {
	svc := New(Config{Projection: proj, CacheTTL: -1, Metrics: telemetry.NewRegistry()}, nil, nil)
	sn, _ := svc.buildSnapshot(tree, ix, pol, t0, nil)
	svc.snap.Store(sn)
	return svc
}

// sameEntry reports whether two answers for one user agree bit for bit.
func sameEntry(a, b wire.FairshareResponse) bool {
	return a.User == b.User && a.ComputedAt.Equal(b.ComputedAt) &&
		oneBitsEqual(a.Value, b.Value) && oneBitsEqual(a.Priority, b.Priority) &&
		bitsEqual(a.Vector, b.Vector)
}

// checkBatch asks svc for users in one batch and checks the answer against
// Priority, user by user: every known user's entry, in request order, equal
// bit for bit in Value, Vector and Priority, and every unknown user in
// Missing, in request order.
func checkBatch(t *testing.T, where string, svc *Service, users []string) wire.FairshareBatchResponse {
	t.Helper()
	resp, err := svc.PriorityBatch(users)
	if err != nil {
		t.Fatalf("%s: PriorityBatch: %v", where, err)
	}
	var found, missing int
	for _, u := range users {
		single, err := svc.Priority(u)
		if err != nil {
			if missing >= len(resp.Missing) || resp.Missing[missing] != u {
				t.Fatalf("%s: unknown user %q is not Missing[%d] of %v", where, u, missing, resp.Missing)
			}
			missing++
			continue
		}
		if found >= len(resp.Entries) || !sameEntry(resp.Entries[found], single) {
			var got any = "no entry"
			if found < len(resp.Entries) {
				got = resp.Entries[found]
			}
			t.Fatalf("%s: batch entry %d is %+v, Priority(%q) %+v", where, found, got, u, single)
		}
		found++
	}
	if found != len(resp.Entries) || missing != len(resp.Missing) {
		t.Fatalf("%s: batch answered %d entries and %d missing, want %d and %d",
			where, len(resp.Entries), len(resp.Missing), found, missing)
	}
	return resp
}

// batchUsers is every leaf name of ix in a random order, some twice, with
// unknown users among them.
func batchUsers(rng *rand.Rand, ix *fairshare.Index) []string {
	var users []string
	for _, i := range rng.Perm(ix.Len()) {
		users = append(users, ix.User(i))
		if rng.Intn(8) == 0 {
			users = append(users, fmt.Sprintf("ghost%d", i))
		}
		if rng.Intn(8) == 0 {
			users = append(users, ix.User(rng.Intn(ix.Len())))
		}
	}
	return users
}

// TestPriorityBatchMatchesPriority pins the batch lookup, which composes
// each entry into its answer, to the single lookup, which composes into the
// snapshot's run cache: for every user and every projection, bit for bit in
// Value, Vector and Priority, over random trees, trees of mixed depth
// (deeper than a descent's stack buffer), names repeated across groups and
// leaves directly under the root, on fresh snapshots and on ones an Apply
// derived. The batch asks first, so it meets a cold snapshot; a second batch
// after the single lookups must answer the same. Last, both kinds of lookup
// read one fresh snapshot from several goroutines at once.
func TestPriorityBatchMatchesPriority(t *testing.T) {
	type shape struct {
		pol    *policy.Tree
		leaves []string
	}
	var shapes []shape
	for seed, sz := range [][2]int{{1, 1}, {3, 4}, {12, 9}, {40, 30}, {60, 200}} {
		pol, leaves, _ := publishPolicy(rand.New(rand.NewSource(int64(seed))), sz[0], sz[1], false)
		shapes = append(shapes, shape{pol, leaves})
	}
	pol, leaves := deepPolicy(11)
	shapes = append(shapes, shape{pol, leaves})
	for si, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(si)))
		totals := map[string]float64{}
		for _, u := range sh.leaves {
			if rng.Intn(10) > 0 {
				totals[u] = rng.Float64() * 1000
			}
		}
		tree := fairshare.Compute(sh.pol, totals, fairshare.DefaultConfig())
		delta := map[string]float64{}
		for i := 0; i < 1+len(sh.leaves)/20; i++ {
			delta[sh.leaves[rng.Intn(len(sh.leaves))]] = rng.Float64() * 2000
		}
		for _, proj := range vector.Projections() {
			// Each projection reads indexes no lookup has warmed yet.
			fresh := fairshare.NewIndex(tree)
			appliedTree, applied, _, err := fairshare.NewRecalc(tree, fresh).Apply(delta)
			if err != nil {
				t.Fatalf("shape %d: Apply: %v", si, err)
			}
			for which, c := range []struct {
				tree *fairshare.Tree
				ix   *fairshare.Index
			}{{tree, fresh}, {appliedTree, applied}} {
				where := fmt.Sprintf("shape %d %s index %d", si, proj.Name(), which)
				svc := publishedService(proj, sh.pol, c.tree, c.ix)
				users := batchUsers(rng, c.ix)
				first := checkBatch(t, where, svc, users)
				again := checkBatch(t, where+" (warm)", svc, users)
				for i := range first.Entries {
					if !sameEntry(first.Entries[i], again.Entries[i]) {
						t.Fatalf("%s: entry %d read %+v cold and %+v warm", where, i, first.Entries[i], again.Entries[i])
					}
				}
			}
		}
	}
	empty := fairshare.Compute(policy.NewTree(), nil, fairshare.DefaultConfig())
	svc := publishedService(vector.Percental{}, policy.NewTree(), empty, fairshare.NewIndex(empty))
	if resp, err := svc.PriorityBatch([]string{"ghost", "ghost"}); err != nil || len(resp.Entries) != 0 ||
		strings.Join(resp.Missing, ",") != "ghost,ghost" {
		t.Fatalf("batch on an empty policy: %+v, %v", resp, err)
	}
	checkConcurrentLookups(t)
}

// checkConcurrentLookups runs batch and single lookups together on fresh
// snapshots, so single lookups build the run cache while batches compose
// beside them. Under -race, every answer must equal the one a twin snapshot,
// read alone, gives; eight snapshots give the detector eight cold starts.
func checkConcurrentLookups(t *testing.T) {
	pol, leaves, _ := publishPolicy(rand.New(rand.NewSource(7)), 40, 30, false)
	totals := map[string]float64{}
	for i, u := range leaves {
		totals[u] = float64(i%17) * 10
	}
	tree := fairshare.Compute(pol, totals, fairshare.DefaultConfig())
	twin := publishedService(vector.Percental{}, pol, tree, fairshare.NewIndex(tree))
	want := map[string]wire.FairshareResponse{}
	for _, u := range leaves {
		r, err := twin.Priority(u)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = r
	}
	for fresh := 0; fresh < 8; fresh++ {
		concurrentLookups(t, publishedService(vector.Percental{}, pol, tree, fairshare.NewIndex(tree)), leaves, want)
	}
}

// concurrentLookups has two goroutines send batches of every user and two
// look each user up alone, all starting together on svc, and checks every
// answer against want.
func concurrentLookups(t *testing.T, svc *Service, leaves []string, want map[string]wire.FairshareResponse) {
	var wg sync.WaitGroup
	start := make(chan struct{}) // every reader's first lookup meets the cold snapshot
	for w := 0; w < 4; w++ {
		order := rand.New(rand.NewSource(int64(w))).Perm(len(leaves))
		users := make([]string, len(order))
		for i, k := range order {
			users[i] = leaves[k]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 3; round++ {
				if w%2 == 0 {
					resp, err := svc.PriorityBatch(users)
					if err != nil || len(resp.Entries) != len(users) {
						t.Errorf("batch: %d entries, %v", len(resp.Entries), err)
						return
					}
					for i, e := range resp.Entries {
						if !sameEntry(e, want[users[i]]) {
							t.Errorf("batch entry for %s: %+v, alone %+v", users[i], e, want[users[i]])
							return
						}
					}
					continue
				}
				for _, u := range users {
					got, err := svc.Priority(u)
					if err != nil || !sameEntry(got, want[u]) {
						t.Errorf("Priority(%s): %+v (%v), alone %+v", u, got, err, want[u])
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
