package durability

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/usage"
)

// benchBatch builds one batch mutation of n ops spread over distinct users.
func benchBatch(n, salt int) *usage.Mutation {
	m := &usage.Mutation{Kind: usage.MutLocalBatch, Ops: make([]usage.BinOp, n)}
	for i := range m.Ops {
		m.Ops[i] = usage.BinOp{
			User:  fmt.Sprintf("user%06d", (salt*n+i)%100000),
			Start: int64(1393632000 + (i%720)*3600),
			Value: 3600 * float64(1+i%8),
		}
	}
	return m
}

// BenchmarkWALReplay measures cold recovery: open a log whose tail holds
// 100k ops (100 group-committed batches of 1000) and replay it into a fresh
// histogram — the startup cost a crashed site pays before serving live data.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	d, err := Open(Options{Dir: dir, Sync: SyncNone, Metrics: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Replay(func(*usage.Mutation) error { return nil }); err != nil {
		b.Fatal(err)
	}
	const batches, perBatch = 100, 1000
	for i := 0; i < batches; i++ {
		if err := d.Commit(benchBatch(perBatch, i), nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Open(Options{Dir: dir, Sync: SyncNone, Metrics: telemetry.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		h := usage.NewHistogram(time.Hour)
		n := 0
		if err := d.Replay(func(m *usage.Mutation) error {
			h.IngestBatch(m.Records("bench"))
			n += len(m.Ops)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != batches*perBatch {
			b.Fatalf("replayed %d ops, want %d", n, batches*perBatch)
		}
		d.Close()
	}
	b.ReportMetric(float64(batches*perBatch), "ops/replay")
}

// BenchmarkWALCommitBatch measures the group-commit write path: one fsynced
// WAL append per 1000-op batch.
func BenchmarkWALCommitBatch(b *testing.B) {
	d, err := Open(Options{Dir: b.TempDir(), Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.Replay(func(*usage.Mutation) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Commit(benchBatch(1000, i), nil); err != nil {
			b.Fatal(err)
		}
	}
	if got := d.Stats().Fsyncs; got != int64(b.N) {
		b.Fatalf("%d fsyncs for %d batches", got, b.N)
	}
}

// BenchmarkSnapshotWrite measures compacting a 100k-record state into a
// snapshot file: one local-set frame.
func BenchmarkSnapshotWrite(b *testing.B) {
	st := &SnapshotState{}
	for i := 0; i < 100000; i++ {
		st.Local = append(st.Local, usage.Record{
			User:          fmt.Sprintf("user%06d", i),
			IntervalStart: time.Unix(1393632000+int64(i%720)*3600, 0).UTC(),
			CoreSeconds:   float64(i) * 1.5,
		})
	}
	d, err := Open(Options{Dir: b.TempDir(), Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.Replay(func(*usage.Mutation) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Snapshot(func() (*SnapshotState, error) { return st, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
