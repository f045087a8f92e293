package uss

import (
	"fmt"
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

func newBenchUSS(tb testing.TB, durable bool) *Service {
	tb.Helper()
	cfg := Config{Site: "s00", BinWidth: time.Hour, Contribute: true, Metrics: telemetry.NewRegistry()}
	if durable {
		d, err := durability.Open(durability.Options{
			Dir:     tb.TempDir(),
			Sync:    durability.SyncAlways,
			Metrics: telemetry.NewRegistry(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { d.Close() })
		if err := d.Replay(func(*usage.Mutation) error { return nil }); err != nil {
			tb.Fatal(err)
		}
		cfg.Durable = d
	}
	return New(cfg)
}

func BenchmarkIngest100kUsersMemory(b *testing.B) {
	batch := benchReports(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newBenchUSS(b, false)
		b.StartTimer()
		s.ReportJobBatch(batch)
	}
}

func BenchmarkIngest100kUsersDurable(b *testing.B) {
	batch := benchReports(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newBenchUSS(b, true)
		b.StartTimer()
		s.ReportJobBatch(batch)
	}
}

// TestDurableIngestOverhead enforces the durability cost envelope: a
// 100k-user batch ingest with the WAL enabled (SyncAlways — the whole batch
// rides one group-committed fsync) must stay within 15% of the in-memory
// path. Min-of-N on both sides filters scheduler noise; N is 15 because with
// 5 a run is 150 ms a side, short enough for one busy neighbour in `go test
// ./...` to cover a whole side (one failure in four on a loaded two-core box,
// at an overhead that measures 3–5 %). Under -race the ratio measures the
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
	run := func(durable bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 15; i++ {
			s := newBenchUSS(t, durable)
			t0 := time.Now()
			s.ReportJobBatch(batch)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	run(false) // warm-up: page in code and allocator arenas

	mem := run(false)
	dur := run(true)
	t.Logf("100k-user ingest: memory=%v durable=%v overhead=%.1f%%",
		mem, dur, 100*(float64(dur)/float64(mem)-1))
	if float64(dur) > float64(mem)*1.15 {
		t.Errorf("durable ingest %v exceeds in-memory %v by more than 15%%", dur, mem)
	}
}
