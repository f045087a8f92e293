package uss

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/durability"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// benchReports builds one 100k-job batch across 100k distinct users — the
// ingest shape from the acceptance bar: a full accounting-dump replay into a
// fresh site.
func benchReports(n int) []JobReport {
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]JobReport, n)
	for i := range out {
		out[i] = JobReport{
			User:     fmt.Sprintf("user%06d", i),
			Start:    base.Add(time.Duration(i%720) * time.Hour),
			Duration: time.Duration(10+i%110) * time.Minute,
			Procs:    1 + i%16,
		}
	}
	return out
}

// newBenchUSS returns a fresh site and the function that closes its WAL (a
// no-op in memory). A caller closes it right after its timed ingest, so no
// run keeps a log, and what it references, alive into the next: both sides
// of a comparison run on the same live heap.
func newBenchUSS(tb testing.TB, durable bool) (*Service, func()) {
	tb.Helper()
	cfg := Config{Site: "s00", BinWidth: time.Hour, Contribute: true, Metrics: telemetry.NewRegistry()}
	if !durable {
		return New(cfg), func() {}
	}
	d, err := durability.Open(durability.Options{
		Dir:     tb.TempDir(),
		Sync:    durability.SyncAlways,
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Replay(func(*usage.Mutation) error { return nil }); err != nil {
		d.Close()
		tb.Fatal(err)
	}
	cfg.Durable = d
	return New(cfg), func() {
		if err := d.Close(); err != nil {
			tb.Error(err)
		}
	}
}

func BenchmarkIngest100kUsersMemory(b *testing.B) {
	batch := benchReports(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := newBenchUSS(b, false)
		b.StartTimer()
		s.ReportJobBatch(batch)
	}
}

func BenchmarkIngest100kUsersDurable(b *testing.B) {
	batch := benchReports(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, closeWAL := newBenchUSS(b, true)
		b.StartTimer()
		s.ReportJobBatch(batch)
		b.StopTimer()
		closeWAL()
		b.StartTimer()
	}
}

// TestDurableIngestOverhead enforces the durability cost envelope: a
// 100k-user batch ingest with the WAL enabled (SyncAlways — the whole batch
// rides one group-committed fsync) must stay within 15% of the in-memory
// path, as the median over 15 paired runs of the durable/in-memory ratio.
// A pair's two runs are back to back, so a busy neighbour in `go test ./...`
// that slows one mostly slows the other, and the median ignores the few
// pairs it splits; a best time per side instead let noise that covered one
// side's runs decide the test. Both sides get the same heap: each
// durable run closes its WAL right after its timed ingest (a log left open
// until cleanup kept its run alive and gave every later durable run a larger
// live heap, and so fewer GCs, than the in-memory side had), and every timed
// ingest starts from a collected heap. Under -race the ratio measures the
// detector's instrumentation of the two paths, not the WAL (25.2, 15.6 and
// 27.4 % in three runs on a two-core box), so the bound is enforced by the
// uninstrumented `go test ./...` only.
func TestDurableIngestOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing test; the race detector's instrumentation, not the WAL, dominates the ratio")
	}
	batch := benchReports(100000)
	once := func(durable bool) time.Duration {
		s, closeWAL := newBenchUSS(t, durable)
		defer closeWAL()
		runtime.GC()
		t0 := time.Now()
		s.ReportJobBatch(batch)
		return time.Since(t0)
	}
	once(false) // warm-up: page in code and allocator arenas

	// One run of each side per iteration, the side that goes first
	// alternating, and the statistic is the median of the iterations'
	// durable/in-memory ratios: a burst of noise on a shared box slows both
	// runs of a pair alike, or spoils one pair of fifteen, instead of
	// deciding one side's best time.
	ratios := make([]float64, 15)
	for i := range ratios {
		var mem, dur time.Duration
		if i%2 == 0 {
			mem, dur = once(false), once(true)
		} else {
			dur, mem = once(true), once(false)
		}
		ratios[i] = float64(dur) / float64(mem)
	}
	slices.Sort(ratios)
	median := ratios[len(ratios)/2]
	t.Logf("100k-user ingest: median durable/in-memory ratio %.3f (range %.3f–%.3f)",
		median, ratios[0], ratios[len(ratios)-1])
	if median > 1.15 {
		t.Errorf("durable ingest exceeds in-memory by %.1f%% in the median pair, more than 15%%", 100*(median-1))
	}
}
