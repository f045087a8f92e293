package durability

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/usage"
)

// testMutation builds a small deterministic mutation distinguishable by i.
func testMutation(i int) *usage.Mutation {
	return &usage.Mutation{
		Kind: usage.MutLocalAdd,
		Ops: []usage.BinOp{{
			User:  fmt.Sprintf("user%03d", i%7),
			Start: int64(i) * 3600,
			Value: float64(i) * 1.25,
		}},
	}
}

func openTest(t *testing.T, dir string, sync SyncPolicy) *Log {
	t.Helper()
	d, err := Open(Options{Dir: dir, Sync: sync, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// replayAll drains the log's tail, returning the replayed mutations.
func replayAll(t *testing.T, d *Log) []*usage.Mutation {
	t.Helper()
	var got []*usage.Mutation
	if err := d.Replay(func(m *usage.Mutation) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func commitN(t *testing.T, d *Log, n, from int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := d.Commit(testMutation(i), nil); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
}

func mutationsEqual(a, b *usage.Mutation) bool {
	return string(a.AppendBinary(nil)) == string(b.AppendBinary(nil))
}

func TestLogCommitReopenReplay(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d) // fresh dir: empty tail
	commitN(t, d, 25, 0)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openTest(t, dir, SyncAlways)
	if !d2.Recovering() {
		t.Fatal("reopened log not recovering")
	}
	got := replayAll(t, d2)
	if len(got) != 25 {
		t.Fatalf("replayed %d records, want 25", len(got))
	}
	for i, m := range got {
		if !mutationsEqual(m, testMutation(i)) {
			t.Fatalf("record %d differs after reopen", i)
		}
	}
	if d2.Recovering() {
		t.Fatal("still recovering after Replay")
	}
}

// TestTornWriteEveryOffset truncates the final record at every byte offset
// and asserts recovery lands cleanly on the last complete record, stays
// writable, and preserves the new commit across another reopen.
func TestTornWriteEveryOffset(t *testing.T) {
	master := t.TempDir()
	d := openTest(t, master, SyncAlways)
	replayAll(t, d)
	commitN(t, d, 3, 0)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(master, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := frameHeaderSize + len(testMutation(2).AppendBinary(nil))
	lastStart := len(data) - lastLen
	if lastStart <= len(walMagic) {
		t.Fatalf("segment layout unexpected: %d bytes, last frame %d", len(data), lastLen)
	}

	for cut := lastStart; cut < len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		got := replayAll(t, d)
		if len(got) != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, len(got))
		}
		// The log must be writable after truncation, and the write must
		// survive another crash/reopen cycle.
		if err := d.Commit(testMutation(99), nil); err != nil {
			t.Fatalf("cut %d: Commit after recovery: %v", cut, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		d2, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatalf("cut %d: second Open: %v", cut, err)
		}
		got2 := replayAll(t, d2)
		if len(got2) != 3 || !mutationsEqual(got2[2], testMutation(99)) {
			t.Fatalf("cut %d: second recovery got %d records", cut, len(got2))
		}
		d2.Close()
	}
}

// TestCorruptionMidLogFailsLoudly flips one byte inside an early record and
// asserts Open fails with a CorruptionError naming the segment and the
// offset of the damaged frame.
func TestCorruptionMidLogFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d)
	commitN(t, d, 5, 0)
	d.Close()

	seg := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the payload of the second frame: its frame starts after the
	// magic plus frame 0.
	frame0 := frameHeaderSize + len(testMutation(0).AppendBinary(nil))
	wantOff := int64(len(walMagic) + frame0)
	data[wantOff+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Options{Dir: dir, Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on corrupt log: got %v, want CorruptionError", err)
	}
	if ce.Path != seg || ce.Offset != wantOff {
		t.Fatalf("corruption reported at %s:%d, want %s:%d", ce.Path, ce.Offset, seg, wantOff)
	}
}

// TestCorruptionRandomFlips fuzzes single-byte flips across the whole log
// body: every flip inside a frame must surface as a corruption error (CRC)
// — never a silently different record stream.
func TestCorruptionRandomFlips(t *testing.T) {
	master := t.TempDir()
	d := openTest(t, master, SyncAlways)
	replayAll(t, d)
	commitN(t, d, 10, 0)
	d.Close()
	data, err := os.ReadFile(filepath.Join(master, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		pos := len(walMagic) + rng.Intn(len(data)-len(walMagic))
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1 << rng.Intn(8)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
		if err != nil {
			continue // loud failure is the expected outcome
		}
		// A flip in a length field can masquerade as a torn tail — the
		// recovered prefix must then still be a prefix of the original
		// records, never altered data.
		got := replayAll(t, d)
		for i, m := range got {
			if i < 10 && !mutationsEqual(m, testMutation(i)) {
				t.Fatalf("trial %d (flip at %d): record %d silently altered", trial, pos, i)
			}
		}
		if len(got) > 10 {
			t.Fatalf("trial %d: recovered %d records from a 10-record log", trial, len(got))
		}
		d.Close()
	}
}

// TestTornMiddleSegmentIsLoud: a short frame in a non-final segment is
// corruption, not a torn tail.
func TestTornMiddleSegmentIsLoud(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d)
	commitN(t, d, 3, 0)
	// Rotate via snapshot so a second segment exists.
	if err := d.Snapshot(func() (*SnapshotState, error) {
		return &SnapshotState{}, nil
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	commitN(t, d, 2, 10)
	d.Close()

	// Re-create segment 0 (pruned by the snapshot) with a torn tail and
	// remove the snapshot, forcing recovery to read it as a middle segment.
	for _, snap := range []string{snapshotName(1)} {
		os.Remove(filepath.Join(dir, snap))
	}
	seg0 := filepath.Join(dir, segmentName(0))
	f, err := createSegment(seg0)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, testMutation(0))
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = Open(Options{Dir: dir, Sync: SyncAlways, Metrics: telemetry.NewRegistry()})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open with torn middle segment: got %v, want CorruptionError", err)
	}
}
