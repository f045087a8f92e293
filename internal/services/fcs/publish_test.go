package fcs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/vector"
)

// publishPolicy builds a random policy with every segment shape the publish
// pass has to stream: leaves hanging directly off the root (one-leaf
// segments with an empty tail), groups of unequal depth (one to three levels
// below the group), single-user groups, and names repeated across groups.
// It returns the tree, its leaf names (repeats included once) and the users
// of the groups whose members all hold the same share: left without usage
// they tie on drift error, so the table's position tie-break is exercised.
// With allFlat every share in the tree is the same.
func publishPolicy(rng *rand.Rand, groups, maxUsers int, allFlat bool) (t *policy.Tree, leaves, tied []string) {
	t = policy.NewTree()
	flat := allFlat
	mustAdd := func(parent, name string) {
		share := 0.1 + rng.Float64()
		if flat {
			share = 1
		}
		if _, err := t.Add(parent, name, share); err != nil {
			panic(err)
		}
	}
	for g := 0; g < groups; g++ {
		flat = allFlat
		if rng.Intn(5) == 0 {
			name := fmt.Sprintf("solo%d", g)
			mustAdd("", name)
			leaves = append(leaves, name)
			continue
		}
		parent := fmt.Sprintf("/g%d", g)
		mustAdd("", parent[1:])
		for d := rng.Intn(3); d > 0; d-- {
			mustAdd(parent, "sub")
			if rng.Intn(2) == 0 {
				// A sibling leaf beside the subgroup: unequal depths within
				// one segment.
				name := fmt.Sprintf("u%d_side%d", g, d)
				mustAdd(parent, name)
				leaves = append(leaves, name)
			}
			parent += "/sub"
		}
		flat = allFlat || rng.Intn(3) == 0
		for u := 1 + rng.Intn(maxUsers); u > 0; u-- {
			name := fmt.Sprintf("u%d_%d", g, u)
			if g > 0 && rng.Intn(20) == 0 {
				name = fmt.Sprintf("dup%d", u) // repeated across groups
			}
			if _, err := t.Lookup(parent + "/" + name); err == nil {
				continue
			}
			mustAdd(parent, name)
			leaves = append(leaves, name)
			if flat {
				tied = append(tied, name)
			}
		}
	}
	return t, leaves, tied
}

// oracleSnapshot is the per-entry publish the drift pass and the read-path
// projection replaced: every value is folded from the composed entry At(i)
// serves, the projection runs through ProjectEntry (or Project, for a global
// one), the error sum is sequential within a segment and over the segments
// in order, and the table is a stable full sort cut at k.
func oracleSnapshot(p vector.Projection, ix *fairshare.Index, resolution float64, k int) (prior []float64, drift []DriftEntry, driftMax, driftMean float64) {
	n := ix.Len()
	prior = make([]float64, n)
	var global map[string]float64
	pp, pointwise := p.(vector.PointwiseProjection)
	if !pointwise {
		global = p.Project(ix.Entries(), resolution)
	}
	all := make([]DriftEntry, 0, n)
	var sum float64
	for s := 0; s < ix.Segments(); s++ {
		lo, hi := ix.SegmentRange(s)
		var segSum float64
		for i := lo; i < hi; i++ {
			e := ix.At(i)
			if pointwise {
				prior[i] = pp.ProjectEntry(e.Entry, resolution)
			} else {
				prior[i] = global[e.User]
			}
			target, actual := 1.0, 1.0
			for _, x := range e.PathShares {
				target *= x
			}
			for _, x := range e.PathUsage {
				actual *= x
			}
			d := DriftEntry{User: e.User, Target: target, Actual: actual, Error: math.Abs(actual - target)}
			segSum += d.Error
			if d.Error > driftMax {
				driftMax = d.Error
			}
			all = append(all, d)
		}
		sum += segSum
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Error > all[j].Error })
	if k >= 0 && k < n {
		all = all[:k]
	}
	if n > 0 {
		driftMean = sum / float64(n)
	}
	return prior, all, driftMax, driftMean
}

// servedValues publishes tree and its index ix under p on a fresh service
// and returns, per entry position, the value Priority, PriorityBatch and
// Table serve for it: a lookup by name answers for the name's first
// position.
func servedValues(t *testing.T, p vector.Projection, pol *policy.Tree, tree *fairshare.Tree, ix *fairshare.Index) (priority, batch, table []float64) {
	t.Helper()
	svc := publishedService(p, pol, tree, ix)
	n := ix.Len()
	users := make([]string, n)
	priority = make([]float64, n)
	for i := range users {
		users[i] = ix.User(i)
		r, err := svc.Priority(users[i])
		if err != nil {
			t.Fatal(err)
		}
		priority[i] = r.Value
	}
	br, err := svc.PriorityBatch(users)
	if err != nil || len(br.Entries) != n {
		t.Fatalf("PriorityBatch: %d entries, %v", len(br.Entries), err)
	}
	tab, err := svc.Table()
	if err != nil || len(tab.Entries) != n {
		t.Fatalf("Table: %d entries, %v", len(tab.Entries), err)
	}
	batch, table = make([]float64, n), make([]float64, n)
	for i := range batch {
		batch[i], table[i] = br.Entries[i].Value, tab.Entries[i].Value
	}
	return priority, batch, table
}

// TestPublishPassMatchesPerEntryOracle pins the drift pass and the values
// the read path projects to the per-entry computation they replaced, bit
// for bit, over random trees, every projection, drift-table sizes from none
// through negative (everyone) to above the population, both sides of the
// fan-out threshold, on a full build and on an incrementally applied index.
// VerifySnapshot cannot catch an error here: its twin runs the same code.
func TestPublishPassMatchesPerEntryOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct {
		groups, maxUsers int
		idle             bool // equal shares and no usage: errors tie from the top down
	}{
		{1, 1, false}, {3, 4, false}, {12, 9, false}, {40, 30, false}, {40, 30, true},
		{60, 200, false}, // above par.Threshold: the pass fans out
	}
	for seed, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(seed)))
		pol, leaves, tied := publishPolicy(rng, shape.groups, shape.maxUsers, shape.idle)
		totals := map[string]float64{}
		for _, u := range leaves {
			if rng.Intn(10) > 0 && !shape.idle {
				totals[u] = rng.Float64() * 1000
			}
		}
		for _, u := range tied {
			delete(totals, u)
		}
		tree := fairshare.Compute(pol, totals, fairshare.DefaultConfig())
		full := fairshare.NewIndex(tree)
		delta := map[string]float64{}
		for i := 0; i < 1+len(leaves)/50; i++ {
			delta[leaves[rng.Intn(len(leaves))]] = rng.Float64() * 2000
		}
		appliedTree, applied, _, err := fairshare.NewRecalc(tree, full).Apply(delta)
		if err != nil {
			t.Fatalf("shape %d: Apply: %v", seed, err)
		}
		n := full.Len()
		if seed == len(shapes)-1 && n < par.Threshold {
			t.Fatalf("largest shape has %d leaves, below the fan-out threshold", n)
		}
		trees := []*fairshare.Tree{tree, appliedTree}
		res := tree.Config.Resolution
		for which, ix := range []*fairshare.Index{full, applied} {
			for i := 0; i < n; i++ {
				e := ix.At(i)
				got, want := vector.Percental{}.Value(e.Target, e.Actual), vector.Percental{}.ProjectEntry(e.Entry, res)
				if !oneBitsEqual(got, want) {
					t.Fatalf("shape %d index %d entry %d: percental of the entry's products %v, of its paths %v", seed, which, i, got, want)
				}
			}
		}
		for _, proj := range vector.Projections() {
			for which, ix := range []*fairshare.Index{full, applied} {
				wantPrior, _, _, _ := oracleSnapshot(proj, ix, res, 0)
				priority, batch, table := servedValues(t, proj, pol, trees[which], ix)
				for i := 0; i < n; i++ {
					first, _ := ix.Pos(ix.User(i))
					if !bitsEqual([]float64{priority[i], batch[i], table[i]}, []float64{wantPrior[first], wantPrior[first], wantPrior[i]}) {
						t.Fatalf("shape %d %s index %d entry %d: Priority/PriorityBatch/Table serve %v/%v/%v, oracle %v/%v",
							seed, proj.Name(), which, i, priority[i], batch[i], table[i], wantPrior[first], wantPrior[i])
					}
				}
			}
		}
		// The drift pass reads no projection.
		for _, k := range []int{0, 1, DefaultDriftTopK, -1, n + 7} {
			for which, ix := range []*fairshare.Index{full, applied} {
				_, wantDrift, wantMax, wantMean := oracleSnapshot(vector.Percental{}, ix, res, k)
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					drift, driftMax, driftMean := driftPass(ix, k)
					where := fmt.Sprintf("shape %d (%d leaves) k=%d index %d procs=%d",
						seed, n, k, which, procs)
					if !oneBitsEqual(driftMax, wantMax) || !oneBitsEqual(driftMean, wantMean) {
						t.Fatalf("%s: drift max/mean %v/%v, oracle %v/%v", where, driftMax, driftMean, wantMax, wantMean)
					}
					if len(drift) != len(wantDrift) {
						t.Fatalf("%s: drift table has %d entries, oracle %d", where, len(drift), len(wantDrift))
					}
					for i := range wantDrift {
						g, w := drift[i], wantDrift[i]
						if g.User != w.User || !bitsEqual(
							[]float64{g.Target, g.Actual, g.Error},
							[]float64{w.Target, w.Actual, w.Error}) {
							t.Fatalf("%s: drift entry %d = %+v, oracle %+v", where, i, g, w)
						}
					}
				}
			}
		}
	}
}
