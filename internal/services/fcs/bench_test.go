package fcs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
	"repro/internal/vector"
	"repro/internal/wire"
)

// benchPolicy builds a two-level policy (groups × users) by constructing
// nodes directly — policy.Tree.Add's duplicate-sibling scan is quadratic
// and would dominate setup at the 1M-user scale.
func benchPolicy(groups, perGroup int) (*policy.Tree, map[string]float64, []string) {
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

func benchService(b *testing.B, groups, perGroup int) (*Service, []string) {
	b.Helper()
	p, usage, users := benchPolicy(groups, perGroup)
	svc := New(Config{
		Clock:    simclock.Real{},
		CacheTTL: 24 * time.Hour, // never stale during the benchmark
		Metrics:  telemetry.NewRegistry(),
	}, staticPDS{p}, &staticUMS{totals: usage})
	if err := svc.Refresh(); err != nil {
		b.Fatal(err)
	}
	return svc, users
}

// BenchmarkPriorityLookupParallel measures serving throughput of the
// lock-free snapshot path under b.RunParallel — lookups/sec must scale
// with cores because the hot path takes no lock and allocates nothing.
func BenchmarkPriorityLookupParallel(b *testing.B) {
	cases := []struct {
		name             string
		groups, perGroup int
	}{
		{"10k", 100, 100},
		{"100k", 320, 320},
		{"1M", 1000, 1000},
	}
	var seq atomic.Int64
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			svc, users := benchService(b, c.groups, c.perGroup)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 7919 // spread goroutines over the user set
				for pb.Next() {
					u := users[i%len(users)]
					i++
					if _, err := svc.Priority(u); err != nil {
						panic(err)
					}
				}
			})
		})
	}
}

// BenchmarkPriorityLookupSeedStyle reproduces the seed's serving discipline
// — a global mutex around two full tree walks — against the same tree, as
// the baseline the snapshot path is measured against.
func BenchmarkPriorityLookupSeedStyle(b *testing.B) {
	cases := []struct {
		name             string
		groups, perGroup int
	}{
		{"10k", 100, 100},
		{"100k", 320, 320},
	}
	var seq atomic.Int64
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p, usage, users := benchPolicy(c.groups, c.perGroup)
			tree := fairshare.Compute(p, usage, fairshare.DefaultConfig())
			prior := tree.Priorities(vector.Percental{})
			var mu sync.Mutex
			lookup := func(user string) (wire.FairshareResponse, error) {
				mu.Lock()
				defer mu.Unlock()
				v, ok := prior[user]
				if !ok {
					return wire.FairshareResponse{}, ErrUnknownUser
				}
				resp := wire.FairshareResponse{User: user, Value: v}
				if vec, ok := tree.Vector(user); ok {
					resp.Vector = vec
				}
				if pr, ok := tree.LeafPriority(user); ok {
					resp.Priority = pr
				}
				return resp, nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 7919
				for pb.Next() {
					u := users[i%len(users)]
					i++
					if _, err := lookup(u); err != nil {
						panic(err)
					}
				}
			})
		})
	}
}

// BenchmarkPriorityBatch1000 resolves a 1000-user queue in one call — one
// snapshot load, 1000 map lookups.
func BenchmarkPriorityBatch1000(b *testing.B) {
	svc, users := benchService(b, 320, 320)
	batch := users[:1000]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.PriorityBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Entries) != 1000 {
			b.Fatalf("entries = %d", len(resp.Entries))
		}
	}
}

// benchScales are the population sizes the refresh benchmarks sweep.
var benchScales = []struct {
	name             string
	groups, perGroup int
}{
	{"10k", 100, 100},
	{"100k", 320, 320},
	{"1M", 1000, 1000},
}

// benchDeltaSeq issues process-unique delta values so a benchmark's warm-up
// probe run can never leave the shared usage source in a state where the
// measured run's first delta is a bitwise no-op (which would make that
// refresh a free snapshot reuse and halve the reported cost).
var benchDeltaSeq int64

// BenchmarkRefreshIncremental measures an end-to-end incremental refresh —
// delta fetch, Recalc engine apply, projection, publication — at varying
// scale and dirty ratio. Compare against BenchmarkRefreshFull at the same
// scale for the incremental speedup. The dirtyN cases script the deltas;
// the exp-uss case is the default configuration end to end: a real USS
// under the 7-day half-life whose change cursor feeds a real UMS, a minute
// of decay and 0.01 % of the users completing a job between refreshes.
func BenchmarkRefreshIncremental(b *testing.B) {
	fracs := []struct {
		name string
		frac float64
	}{
		{"dirty0.01pct", 0.0001},
		{"dirty1pct", 0.01},
		{"dirty100pct", 1},
	}
	for _, sz := range benchScales {
		b.Run(sz.name, func(b *testing.B) {
			p, usage, users := benchPolicy(sz.groups, sz.perGroup)
			ums := newDeltaUMS(usage)
			svc := New(Config{
				Clock:    simclock.Real{},
				CacheTTL: 24 * time.Hour,
				Metrics:  telemetry.NewRegistry(),
			}, pds.New(p, nil), ums)
			if err := svc.Refresh(); err != nil { // full anchor refresh
				b.Fatal(err)
			}
			n := len(users)
			for _, fr := range fracs {
				b.Run(fr.name, func(b *testing.B) {
					k := int(float64(n) * fr.frac)
					if k < 1 {
						k = 1
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						ch := make(map[string]float64, k)
						for j := 0; j < k; j++ {
							benchDeltaSeq++
							ch[users[int(benchDeltaSeq)*7919%n]] = float64(benchDeltaSeq) + 0.25
						}
						ums.apply(ch)
						b.StartTimer()
						if err := svc.Refresh(); err != nil {
							b.Fatal(err)
						}
						if ri := svc.LastRefresh(); ri.Mode != RefreshIncremental {
							b.Fatalf("refresh mode = %q, want incremental", ri.Mode)
						} else if ri.DirtyUsers != len(ch) {
							b.Fatalf("dirty users = %d, want %d", ri.DirtyUsers, len(ch))
						}
					}
				})
			}
			b.Run("exp-uss-dirty0.01pct", func(b *testing.B) {
				benchRefreshOverUSS(b, p, users, max(n/10000, 1))
			})
		})
	}
}

// benchRefreshOverUSS times Site.Refresh's two halves (the UMS pass over
// the USS's change cursor, then the FCS refresh) with k completions and one
// minute of decay between iterations.
func benchRefreshOverUSS(b *testing.B, p *policy.Tree, users []string, k int) {
	clock := simclock.NewSim(time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC))
	src := uss.New(uss.Config{Site: "s", BinWidth: time.Hour, Contribute: true, Clock: clock, Metrics: telemetry.NewRegistry()})
	history := make([]uss.JobReport, len(users))
	for i, u := range users {
		history[i] = uss.JobReport{User: u, Start: clock.Now().Add(-time.Duration(2+i%300) * time.Hour), Duration: time.Hour, Procs: 1 + i%8}
	}
	src.ReportJobBatch(history)
	m := ums.New(ums.Config{Clock: clock, CacheTTL: time.Minute, Metrics: telemetry.NewRegistry(),
		Decay: usage.ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}}, src.View(true))
	svc := New(Config{Clock: clock, CacheTTL: 24 * time.Hour, Metrics: telemetry.NewRegistry()}, pds.New(p, nil), m)
	if err := svc.Refresh(); err != nil { // full anchor refresh
		b.Fatal(err)
	}
	jobs := make([]uss.JobReport, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock.Advance(time.Minute)
		for j := range jobs {
			benchDeltaSeq++
			jobs[j] = uss.JobReport{User: users[int(benchDeltaSeq)*7919%len(users)], Start: clock.Now().Add(-10 * time.Minute), Duration: 10 * time.Minute, Procs: 4}
		}
		src.ReportJobBatch(jobs)
		b.StartTimer()
		m.Invalidate()
		if err := svc.Refresh(); err != nil {
			b.Fatal(err)
		}
		// Dirty: this round's users plus those still clamped in the open bin.
		if ri := svc.LastRefresh(); ri.Mode != RefreshIncremental || ri.DirtyUsers == 0 || ri.DirtyUsers > k*(i+1) {
			b.Fatalf("%s refresh of %d users, want incremental of at most %d", ri.Mode, ri.DirtyUsers, k*(i+1))
		}
	}
}

// BenchmarkRefreshFull measures the same end-to-end refresh against sources
// without delta support — every refresh recomputes the whole tree.
func BenchmarkRefreshFull(b *testing.B) {
	for _, sz := range benchScales {
		b.Run(sz.name, func(b *testing.B) {
			svc, _ := benchService(b, sz.groups, sz.perGroup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Refresh(); err != nil {
					b.Fatal(err)
				}
				if ri := svc.LastRefresh(); ri.Mode != RefreshFull {
					b.Fatalf("refresh mode = %q, want full", ri.Mode)
				}
			}
		})
	}
}

// BenchmarkSnapshotRebuild measures the full pre-calculation (compute +
// index + projection + table assembly) the background refresh pays.
func BenchmarkSnapshotRebuild(b *testing.B) {
	for _, c := range []struct {
		name             string
		groups, perGroup int
	}{
		{"10k", 100, 100},
		{"100k", 320, 320},
	} {
		b.Run(c.name, func(b *testing.B) {
			svc, _ := benchService(b, c.groups, c.perGroup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
