package fcs

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/services/pds"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/vector"
)

// groupedFCS returns an incremental service over the groups×users leaves of
// benchPolicy, every user with some usage, after its first (full) refresh.
func groupedFCS(t *testing.T, groups, users int, cfg Config) (*Service, *deltaUMS, []string) {
	t.Helper()
	pol, totals, names := benchPolicy(groups, users)
	ums := newDeltaUMS(totals)
	cfg.Clock, cfg.CacheTTL, cfg.SynchronousRefresh = simclock.NewSim(t0), -1, true
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	svc := New(cfg, pds.New(pol, nil), ums)
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	return svc, ums, names
}

// TestOneUserDeltaAllocatesNoPerLeafColumn pins that a refresh does no
// per-leaf work beyond the dirty paths: a one-user incremental refresh of a
// 100k-leaf policy allocates less than one float per leaf. Projecting
// every leaf at publication (a priority column) or summarizing drift there
// (its usage-share scratch) would each allocate 8 B per leaf.
func TestOneUserDeltaAllocatesNoPerLeafColumn(t *testing.T) {
	const groups, users = 250, 400
	n := groups * users
	svc, ums, names := groupedFCS(t, groups, users, Config{})
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		ums.apply(map[string]float64{names[i*users+7]: float64(1000 + i)})
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
		if ri := svc.LastRefresh(); ri.Mode != RefreshIncremental || ri.DirtyUsers != 1 {
			t.Fatalf("refresh %d: mode %s, %d dirty users, want incremental with 1", i, ri.Mode, ri.DirtyUsers)
		}
	}
	if least >= uint64(8*n) {
		t.Fatalf("a one-user refresh of %d leaves allocated %d B, want < %d (8 B per leaf)", n, least, 8*n)
	}
	t.Logf("one-user refresh of %d leaves: %d B (%.2f B per leaf)", n, least, float64(least)/float64(n))
}

// TestDriftPassRunsOncePerSnapshot pins the drift summary's laziness: it
// is computed on the first Drift() of a snapshot (one fcs.drift span) and
// then shared — by later calls, by the no-op republish and by a projection
// change, which all serve the same table — while a refresh that changed
// usage gets a summary of its own.
func TestDriftPassRunsOncePerSnapshot(t *testing.T) {
	rec := span.NewRecorder(span.Config{})
	svc, ums, names := groupedFCS(t, 3, 5, Config{Spans: rec})
	passes := func() int {
		k := 0
		for _, sp := range rec.Snapshot() {
			if sp.Name == "fcs.drift" {
				k++
			}
		}
		return k
	}
	if k := passes(); k != 0 {
		t.Fatalf("%d drift passes before anyone asked, want 0", k)
	}
	first := svc.Drift()
	if len(first.Entries) == 0 {
		t.Fatal("empty drift table")
	}
	same := func(step string, d DriftTable) {
		t.Helper()
		if &d.Entries[0] != &first.Entries[0] || d.MaxError != first.MaxError || d.MeanError != first.MeanError {
			t.Fatalf("%s: drift table is not the first one's", step)
		}
		if k := passes(); k != 1 {
			t.Fatalf("%s: %d drift passes, want 1", step, k)
		}
	}
	same("second call", svc.Drift())
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ri := svc.LastRefresh(); ri.DirtyUsers != 0 {
		t.Fatalf("republish recomputed %d users, want 0", ri.DirtyUsers)
	}
	same("no-op republish", svc.Drift())
	for _, p := range vector.Projections() {
		svc.SetProjection(p)
		same("SetProjection("+p.Name()+")", svc.Drift())
	}

	ums.apply(map[string]float64{names[0]: 5000})
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if d := svc.Drift(); &d.Entries[0] == &first.Entries[0] || passes() != 2 {
		t.Fatalf("a refresh that changed usage served the old drift table (%d passes)", passes())
	}
}

// TestDriftAndScrapeDuringRefresh runs the lazy drift pass — through
// Drift() and through a scrape's gauge hook — and the pointwise lookups
// against a stream of refreshes, so -race sees a snapshot's first reader
// race its publisher and its other readers.
func TestDriftAndScrapeDuringRefresh(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, ums, names := groupedFCS(t, 8, 40, Config{Metrics: reg})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reader(func() error { svc.Drift(); return nil })
	reader(func() error { return reg.WritePrometheus(io.Discard) })
	reader(func() error { _, err := svc.Priority(names[3]); return err })
	reader(func() error { _, err := svc.PriorityBatch(names[:64]); return err })
	for i := 0; i < 200; i++ {
		ums.apply(map[string]float64{names[(i*37)%len(names)]: float64(100 + i)})
		if err := svc.Refresh(); err != nil {
			t.Error(err)
			break
		}
		if i%50 == 0 {
			svc.SetProjection(vector.Projections()[i/50%3])
		}
	}
	close(stop)
	wg.Wait()
	d := svc.Drift()
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("aequus_fcs_drift_max_ratio", "").Value(); got != d.MaxError {
		t.Fatalf("drift max gauge %v after a scrape, snapshot's %v", got, d.MaxError)
	}
	if err := svc.VerifySnapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestScrapeHookDoesNotRetainService pins that the drift gauges' scrape hook
// holds its service weakly: a registry that outlives a service (the
// process-wide default one) must let it and its snapshot be collected, and
// a scrape after that still succeeds.
func TestScrapeHookDoesNotRetainService(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, _, _ := groupedFCS(t, 2, 3, Config{Metrics: reg})
	collected := make(chan struct{})
	runtime.SetFinalizer(svc, func(*Service) { close(collected) })
	svc = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
	t.Fatal("the service was never collected: something holds it")
}
