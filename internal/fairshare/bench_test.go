package fairshare

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/policy"
	"repro/internal/vector"
)

// buildWide builds a policy with users spread over groups and matching
// usage, for compute benchmarks.
func buildWide(groups, usersPerGroup int) (*policy.Tree, map[string]float64) {
	p := policy.NewTree()
	usage := map[string]float64{}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < groups; g++ {
		gname := fmt.Sprintf("g%03d", g)
		p.Add("", gname, rng.Float64()+0.1)
		for u := 0; u < usersPerGroup; u++ {
			uname := fmt.Sprintf("u%03d_%03d", g, u)
			p.Add("/"+gname, uname, rng.Float64()+0.1)
			usage[uname] = rng.Float64() * 1e6
		}
	}
	return p, usage
}

func BenchmarkCompute100Users(b *testing.B) {
	p, usage := buildWide(10, 10)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(p, usage, cfg)
	}
}

func BenchmarkCompute1000Users(b *testing.B) {
	p, usage := buildWide(25, 40)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(p, usage, cfg)
	}
}

func BenchmarkEntries1000Users(b *testing.B) {
	p, usage := buildWide(25, 40)
	t := Compute(p, usage, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(t.Entries()) == 0 {
			b.Fatal("no entries")
		}
	}
}

func BenchmarkProjections1000Users(b *testing.B) {
	p, usage := buildWide(25, 40)
	t := Compute(p, usage, DefaultConfig())
	entries := t.Entries()
	for _, proj := range vector.Projections() {
		proj := proj
		b.Run(proj.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				proj.Project(entries, 10000)
			}
		})
	}
}

// benchScales are the population sizes the incremental-recalc benchmarks
// sweep (groups × usersPerGroup).
var benchScales = []struct {
	name             string
	groups, perGroup int
}{
	{"10k", 100, 100},
	{"100k", 320, 320},
	{"1M", 1000, 1000},
}

// benchDirtyFracs are the dirty-user ratios per Apply. The 25 % and 50 %
// rows bracket the share at which Apply stops beating
// BenchmarkRecalcFullBaseline — the numbers behind usage.DeltaPays.
var benchDirtyFracs = []struct {
	name string
	frac float64
}{
	{"dirty0.01pct", 0.0001},
	{"dirty1pct", 0.01},
	{"dirty25pct", 0.25},
	{"dirty50pct", 0.5},
	{"dirty100pct", 1},
}

// buildWideDirect is buildWide by direct node construction — policy.Add's
// duplicate-sibling scan is quadratic and would dominate setup at the
// 1M-user scale.
func buildWideDirect(groups, perGroup int) (*policy.Tree, map[string]float64, []string) {
	rng := rand.New(rand.NewSource(1))
	root := &policy.Node{Name: "", Share: 1}
	root.Children = make([]*policy.Node, 0, groups)
	usage := make(map[string]float64, groups*perGroup)
	users := make([]string, 0, groups*perGroup)
	for g := 0; g < groups; g++ {
		gn := &policy.Node{Name: fmt.Sprintf("g%04d", g), Share: rng.Float64() + 0.1}
		gn.Children = make([]*policy.Node, 0, perGroup)
		for u := 0; u < perGroup; u++ {
			name := fmt.Sprintf("u%04d_%04d", g, u)
			gn.Children = append(gn.Children, &policy.Node{Name: name, Share: rng.Float64() + 0.1})
			usage[name] = rng.Float64() * 1e6
			users = append(users, name)
		}
		root.Children = append(root.Children, gn)
	}
	return &policy.Tree{Root: root}, usage, users
}

// benchDeltaSeq issues process-unique delta values so the benchmark's
// warm-up probe run can never leave the engine in a state where the
// measured run's first delta is a bitwise no-op (which would make that
// Apply nearly free and halve the reported cost).
var benchDeltaSeq int64

// BenchmarkRecalcApply measures one incremental snapshot derivation at
// varying scale and dirty ratio — the steady-state cost the FCS pays per
// refresh when delta sources are wired up.
func BenchmarkRecalcApply(b *testing.B) {
	for _, sz := range benchScales {
		b.Run(sz.name, func(b *testing.B) {
			p, usage, users := buildWideDirect(sz.groups, sz.perGroup)
			cfg := DefaultConfig()
			tree := Compute(p, usage, cfg)
			ix := NewIndex(tree)
			n := len(users)
			for _, fr := range benchDirtyFracs {
				b.Run(fr.name, func(b *testing.B) {
					r := NewRecalc(tree, ix)
					k := int(float64(n) * fr.frac)
					if k < 1 {
						k = 1
					}
					delta := make(map[string]float64, k)
					var matSegs, sharedSegs int
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := 0; j < k; j++ {
							benchDeltaSeq++
							delta[users[int(benchDeltaSeq)*7919%n]] = float64(benchDeltaSeq) + 0.5
						}
						_, _, st, err := r.Apply(delta)
						if err != nil {
							b.Fatal(err)
						}
						if st.DirtyLeaves != len(delta) {
							b.Fatalf("dirty leaves = %d, want %d", st.DirtyLeaves, len(delta))
						}
						matSegs += st.MaterializedSegments
						sharedSegs += st.SharedSegments
						for u := range delta {
							delete(delta, u)
						}
					}
					b.ReportMetric(float64(matSegs)/float64(b.N), "dirtysegs/op")
					b.ReportMetric(float64(sharedSegs)/float64(b.N), "sharedsegs/op")
				})
			}
		})
	}
}

// BenchmarkRecalcFullBaseline is the from-scratch Compute+NewIndex cost the
// incremental path is measured against (same trees as BenchmarkRecalcApply).
func BenchmarkRecalcFullBaseline(b *testing.B) {
	for _, sz := range benchScales {
		b.Run(sz.name, func(b *testing.B) {
			p, usage, _ := buildWideDirect(sz.groups, sz.perGroup)
			cfg := DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := Compute(p, usage, cfg)
				if NewIndex(t).Len() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

func BenchmarkVectorLookup(b *testing.B) {
	p, usage := buildWide(25, 40)
	t := Compute(p, usage, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Vector("u012_020"); !ok {
			b.Fatal("missing user")
		}
	}
}
