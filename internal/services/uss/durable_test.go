package uss

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/durability"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

func openLog(t *testing.T, dir string, sync durability.SyncPolicy) *durability.Log {
	t.Helper()
	d, err := durability.Open(durability.Options{Dir: dir, Sync: sync, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("durability.Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func newDurableUSS(t *testing.T, dir string, sync durability.SyncPolicy) (*Service, *durability.Log) {
	t.Helper()
	d := openLog(t, dir, sync)
	s := New(Config{Site: "s00", BinWidth: time.Hour, Contribute: true, Metrics: telemetry.NewRegistry(), Durable: d})
	return s, d
}

func recordsBitEqual(t *testing.T, label string, a, b []usage.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d records", label, len(a), len(b))
	}
	for i := range a {
		if a[i].User != b[i].User || !a[i].IntervalStart.Equal(b[i].IntervalStart) ||
			math.Float64bits(a[i].CoreSeconds) != math.Float64bits(b[i].CoreSeconds) {
			t.Fatalf("%s: record %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestDurableRecoveryBitIdentical is the core crash contract at the USS
// layer: kill a USS after a mix of single reports, batch ingests, and peer
// exchanges, rebuild it from disk — from the WAL alone, or from a snapshot
// (its local set and a mirror) plus the tail past it — and its CaptureState
// image, local records, remote mirrors and watermarks, is bit-identical to
// the pre-crash one.
func TestDurableRecoveryBitIdentical(t *testing.T) {
	for name, snapshot := range map[string]bool{"wal only": false, "snapshot and tail": true} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, d := newDurableUSS(t, dir, durability.SyncAlways)
			if err := d.Replay(s.ApplyMutation); err != nil {
				t.Fatal(err)
			}

			base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
			s.ReportJob("alice", base, 90*time.Minute, 4)
			s.ReportJob("bob", base.Add(time.Hour), 30*time.Minute, 1)
			var batch []JobReport
			for i := 0; i < 200; i++ {
				batch = append(batch, JobReport{
					User:     "user" + string(rune('a'+i%5)),
					Start:    base.Add(time.Duration(i) * 11 * time.Minute),
					Duration: time.Duration(10+i%50) * time.Minute,
					Procs:    1 + i%8,
				})
			}
			s.ReportJobBatch(batch)

			// A peer exchange lands remote bins and a watermark through the WAL.
			peer := New(Config{Site: "s01", BinWidth: time.Hour, Contribute: true, Metrics: telemetry.NewRegistry()})
			peer.ReportJob("carol", base, 2*time.Hour, 2)
			peer.ReportJob("alice", base.Add(3*time.Hour), time.Hour, 1)
			s.AddPeer(peer)
			if _, err := s.Exchange(context.Background()); err != nil {
				t.Fatalf("Exchange: %v", err)
			}
			if snapshot {
				if err := d.Snapshot(func() (*durability.SnapshotState, error) { return s.CaptureState(), nil }); err != nil {
					t.Fatal(err)
				}
				// The tail adds to bins the snapshot holds, and moves the mirror.
				s.ReportJobBatch(batch[:50])
				peer.ReportJob("carol", base.Add(2*time.Hour), time.Hour, 3)
				if _, err := s.Exchange(context.Background()); err != nil {
					t.Fatalf("Exchange: %v", err)
				}
			}

			want := s.CaptureState()

			// Crash: drop the in-memory service, close the log uncleanly-ish
			// (Close flushes, but with SyncAlways everything is already synced).
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			s2, d2 := newDurableUSS(t, dir, durability.SyncAlways)
			if err := d2.Replay(s2.ApplyMutation); err != nil {
				t.Fatalf("Replay: %v", err)
			}

			statesBitEqual(t, "recovered", want, s2.CaptureState())

			// And the decayed totals — the numbers priorities are computed
			// from — must agree bitwise too.
			now := base.Add(48 * time.Hour)
			wantTotals := s.GlobalTotals(now, usage.None{})
			gotTotals := s2.GlobalTotals(now, usage.None{})
			if len(wantTotals) != len(gotTotals) {
				t.Fatalf("totals users: %d vs %d", len(gotTotals), len(wantTotals))
			}
			for u, w := range wantTotals {
				if math.Float64bits(gotTotals[u]) != math.Float64bits(w) {
					t.Fatalf("total[%s]: %x vs %x", u, math.Float64bits(gotTotals[u]), math.Float64bits(w))
				}
			}
		})
	}
}

// TestBatchIngestOneFsync asserts the group-commit contract end to end: a
// ReportJobBatch of any size costs exactly one fsync.
func TestBatchIngestOneFsync(t *testing.T) {
	s, d := newDurableUSS(t, t.TempDir(), durability.SyncAlways)
	if err := d.Replay(s.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	var batch []JobReport
	for i := 0; i < 1000; i++ {
		batch = append(batch, JobReport{
			User:     "u" + string(rune('a'+i%26)),
			Start:    base.Add(time.Duration(i) * time.Minute),
			Duration: time.Hour,
			Procs:    2,
		})
	}
	before := d.Stats()
	s.ReportJobBatch(batch)
	after := d.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Fatalf("1000-job batch cost %d fsyncs, want exactly 1", got)
	}
	if got := after.Records - before.Records; got != 1 {
		t.Fatalf("1000-job batch committed %d WAL records, want 1", got)
	}

	// Per-job reporting costs one fsync each — the contrast that makes
	// batching the group-commit point.
	before = d.Stats()
	s.ReportJob("alice", base, time.Hour, 1)
	s.ReportJob("bob", base, time.Hour, 1)
	if got := d.Stats().Fsyncs - before.Fsyncs; got != 2 {
		t.Fatalf("2 single reports cost %d fsyncs, want 2", got)
	}
}

// TestEmptyBatchWritesNothing: a batch with no valid report (POST
// /usage/batch accepts zero durations) and a single report of zero duration
// commit no WAL record and cost no fsync.
func TestEmptyBatchWritesNothing(t *testing.T) {
	s, d := newDurableUSS(t, t.TempDir(), durability.SyncAlways)
	if err := d.Replay(s.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	before := d.Stats()
	s.ReportJobBatch([]JobReport{{User: "alice", Start: base}, {User: "", Start: base, Duration: time.Hour}})
	s.ReportJob("bob", base, 0, 4)
	s.ReportJobBatch(nil)
	after := d.Stats()
	if after.Records != before.Records || after.Fsyncs != before.Fsyncs {
		t.Fatalf("reports with nothing to record moved the WAL: records %d→%d, fsyncs %d→%d",
			before.Records, after.Records, before.Fsyncs, after.Fsyncs)
	}
	if got := s.LocalRecords(); len(got) != 0 {
		t.Fatalf("recorded %v", got)
	}
}

// TestLocalAddFrameStillReplays: a log written before single reports became
// one-job batches holds MutLocalAdd frames. Such a log replays to the same
// bits as the one-job MutLocalBatch path produces today.
func TestLocalAddFrameStillReplays(t *testing.T) {
	dir := t.TempDir()
	s, d := newDurableUSS(t, dir, durability.SyncAlways)
	if err := d.Replay(s.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	jobs := []JobReport{
		{User: "alice", Start: base, Duration: 90 * time.Minute, Procs: 4},
		{User: "alice", Start: base.Add(10 * time.Minute), Duration: 7 * time.Minute, Procs: 3},
		{User: "bob", Start: base.Add(time.Hour), Duration: 30 * time.Minute, Procs: 0},
	}
	for _, j := range jobs {
		// The frame a single report wrote: one op, the job's usage in the
		// bin of its completion time.
		end := j.Start.Add(j.Duration)
		mut := &usage.Mutation{Kind: usage.MutLocalAdd, Ops: []usage.BinOp{{
			User: j.User, Start: s.local.AlignStart(end), Value: j.Duration.Seconds() * float64(max(j.Procs, 1)),
		}}}
		if err := d.Commit(mut, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, d2 := newDurableUSS(t, dir, durability.SyncAlways)
	if err := d2.Replay(replayed.ApplyMutation); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	live := New(Config{Site: "s00", BinWidth: time.Hour, Contribute: true, Metrics: telemetry.NewRegistry()})
	for _, j := range jobs {
		live.ReportJob(j.User, j.Start, j.Duration, j.Procs)
	}
	recordsBitEqual(t, "MutLocalAdd replay vs one-job batches", live.LocalRecords(), replayed.LocalRecords())
}

// TestFrozenExchangeServingMidReplay: while the WAL tail is replaying,
// peers pulling RecordsSince get the frozen snapshot image — never the
// half-rebuilt live histogram — and after replay the live path takes over.
func TestFrozenExchangeServingMidReplay(t *testing.T) {
	dir := t.TempDir()
	s, d := newDurableUSS(t, dir, durability.SyncAlways)
	if err := d.Replay(s.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	s.ReportJob("alice", base, time.Hour, 1) // pre-snapshot state
	if err := d.Snapshot(func() (*durability.SnapshotState, error) {
		return s.CaptureState(), nil
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	preCrash := s.LocalRecords()
	// Tail records past the snapshot: these exist only in the WAL.
	s.ReportJob("bob", base.Add(2*time.Hour), time.Hour, 1)
	s.ReportJob("carol", base.Add(3*time.Hour), time.Hour, 1)
	d.Close()

	s2, d2 := newDurableUSS(t, dir, durability.SyncAlways)

	// Before replay: frozen image only.
	recs, err := s2.RecordsSince(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	recordsBitEqual(t, "pre-replay serving", preCrash, recs)

	// Mid-replay (inside the applier, after the snapshot's local set and
	// then each tail record landed in the live histogram): still the frozen
	// image.
	applied := 0
	err = d2.Replay(func(m *usage.Mutation) error {
		if err := s2.ApplyMutation(m); err != nil {
			return err
		}
		applied++
		mid, err := s2.RecordsSince(context.Background(), time.Time{})
		if err != nil {
			return err
		}
		recordsBitEqual(t, "mid-replay serving", preCrash, mid)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1+2 {
		t.Fatalf("replayed %d mutations, want the snapshot's local set and 2 tail records", applied)
	}

	// After replay: the live histogram, tail included.
	recs, err = s2.RecordsSince(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(preCrash)+2 {
		t.Fatalf("post-replay serving has %d records, want %d", len(recs), len(preCrash)+2)
	}
}

// TestCaptureStateMatchesRecords: the stripe-by-stripe capture exports the
// same canonical record stream as the whole-histogram export.
func TestCaptureStateMatchesRecords(t *testing.T) {
	s, d := newDurableUSS(t, t.TempDir(), durability.SyncNone)
	if err := d.Replay(s.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	var batch []JobReport
	for i := 0; i < 500; i++ {
		batch = append(batch, JobReport{
			User:     "user" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)),
			Start:    base.Add(time.Duration(i) * 13 * time.Minute),
			Duration: time.Duration(5+i%120) * time.Minute,
			Procs:    1 + i%4,
		})
	}
	s.ReportJobBatch(batch)
	st := s.CaptureState()
	recordsBitEqual(t, "capture vs export", s.LocalRecords(), st.Local)
}

// sortRecords orders records by user then interval start, the canonical
// export order: the reference CaptureState's order of the stripe exports is
// held to.
func sortRecords(recs []usage.Record) {
	slices.SortFunc(recs, func(a, b usage.Record) int {
		if c := strings.Compare(a.User, b.User); c != 0 {
			return c
		}
		return a.IntervalStart.Compare(b.IntervalStart)
	})
}

// capturedUSS is an in-memory site holding 4 × users jobs of random users
// (of users names, so every stripe holds some) and 4 × users records pulled
// from each of peers peers, their users and hours random too.
func capturedUSS(tb testing.TB, rng *rand.Rand, users, peers int) *Service {
	tb.Helper()
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	s := New(Config{Site: "s00", BinWidth: time.Hour, Contribute: true,
		Clock: simclock.NewSim(base.Add(1000 * time.Hour)), Metrics: telemetry.NewRegistry()})
	batch := make([]JobReport, 4*users)
	for i := range batch {
		batch[i] = JobReport{
			User:     fmt.Sprintf("user%d", rng.Intn(users)),
			Start:    base.Add(time.Duration(rng.Intn(900)) * time.Hour),
			Duration: time.Duration(1+rng.Intn(180)) * time.Minute,
			Procs:    1 + rng.Intn(4),
		}
	}
	s.ReportJobBatch(batch)
	for p := 0; p < peers; p++ {
		site := fmt.Sprintf("peer%d", p)
		recs := make([]usage.Record, 4*users)
		for i := range recs {
			recs[i] = usage.Record{User: fmt.Sprintf("user%d", rng.Intn(users)), Site: site,
				IntervalStart: base.Add(time.Duration(rng.Intn(900)) * time.Hour), CoreSeconds: rng.Float64() * 3600}
		}
		s.AddPeer(&okPeer{site: site, recs: recs})
	}
	if _, err := s.Exchange(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestCaptureStateMatchesSortedStripes: CaptureState orders the stripes'
// sorted exports by user into the list that sorting their concatenation
// gives, for the local histogram and for every peer's.
func TestCaptureStateMatchesSortedStripes(t *testing.T) {
	s := capturedUSS(t, rand.New(rand.NewSource(1)), 3000, 3)
	sorted := func(h *usage.Histogram, site string) []usage.Record {
		var recs []usage.Record
		for i := 0; i < h.NumStripes(); i++ {
			recs = append(recs, h.StripeRecords(site, i)...)
		}
		sortRecords(recs)
		return recs
	}
	st := s.CaptureState()
	recordsBitEqual(t, "local", sorted(s.local, "s00"), st.Local)
	if len(st.Remote) != 3 {
		t.Fatalf("captured %d peers, want 3", len(st.Remote))
	}
	for peer, h := range s.remote {
		recordsBitEqual(t, peer, sorted(h, peer), st.Remote[peer])
	}
}

// BenchmarkCaptureState is the USS's part of a snapshot: the capture of a
// 20k-user site that has pulled two 20k-user peers.
func BenchmarkCaptureState(b *testing.B) {
	s := capturedUSS(b, rand.New(rand.NewSource(1)), 20000, 2)
	b.ReportAllocs()
	for b.Loop() {
		s.CaptureState()
	}
}
