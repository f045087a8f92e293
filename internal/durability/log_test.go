package durability

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/usage"
)

// awkward are float64 values a snapshot must keep to the bit.
var awkward = []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), 1.0 / 3.0, 0.1 + 0.2}

func randState(rng *rand.Rand) *SnapshotState {
	mkRecs := func(site string, n int) []usage.Record {
		recs := make([]usage.Record, n)
		for i := range recs {
			v := rng.NormFloat64() * 1e6
			if rng.Intn(3) == 0 {
				v = awkward[rng.Intn(len(awkward))]
			}
			recs[i] = usage.Record{
				User:          "u" + string(rune('a'+rng.Intn(26))),
				Site:          site,
				IntervalStart: time.Unix(int64(rng.Intn(1<<20))*3600, 0).UTC(),
				CoreSeconds:   v,
			}
		}
		return recs
	}
	st := &SnapshotState{
		Local:     mkRecs("self", rng.Intn(50)),
		Remote:    map[string][]usage.Record{},
		Watermark: map[string]time.Time{},
	}
	if rng.Intn(2) == 0 {
		st.Policy = []byte(`{"root":{}}`)
	}
	for i := 0; i < rng.Intn(4); i++ {
		peer := "peer" + string(rune('0'+i))
		st.Remote[peer] = mkRecs(peer, rng.Intn(30)) // sometimes an empty mirror
		st.Watermark[peer] = time.Unix(0, rng.Int63()).UTC()
	}
	return st
}

// snapshotAndReopen snapshots st into a fresh log, closes it, reopens the
// directory and returns the reopened log, still recovering, and its path.
func snapshotAndReopen(t *testing.T, st *SnapshotState) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	d := openTest(t, dir, SyncNone)
	replayAll(t, d)
	if err := d.Snapshot(func() (*SnapshotState, error) { return st, nil }); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return openTest(t, dir, SyncNone), dir
}

// stateOf rebuilds, from Mutation fields alone, the state a snapshot's
// replayed frames carry.
func stateOf(t *testing.T, muts []*usage.Mutation) *SnapshotState {
	t.Helper()
	st := &SnapshotState{Remote: map[string][]usage.Record{}, Watermark: map[string]time.Time{}}
	for i, m := range muts {
		switch m.Kind {
		case usage.MutPolicy:
			st.Policy = m.Blob
		case usage.MutLocalSet:
			st.Local = m.Records("")
		case usage.MutRemoteSet:
			st.Remote[m.Site] = m.Records(m.Site)
			st.Watermark[m.Site] = time.Unix(0, m.Watermark).UTC()
		default:
			t.Fatalf("snapshot frame %d has kind %d", i, m.Kind)
		}
	}
	return st
}

// statesEqual fails unless two images agree on the policy bytes, every bin
// (user, start and Float64bits), every mirror and every watermark.
func statesEqual(t *testing.T, label string, want, got *SnapshotState) {
	t.Helper()
	same := func(what string, a, b []usage.Record) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d records, want %d", label, what, len(b), len(a))
		}
		for i := range a {
			if a[i].User != b[i].User || !a[i].IntervalStart.Equal(b[i].IntervalStart) ||
				math.Float64bits(a[i].CoreSeconds) != math.Float64bits(b[i].CoreSeconds) {
				t.Fatalf("%s: %s record %d is %+v, want %+v", label, what, i, b[i], a[i])
			}
		}
	}
	if string(want.Policy) != string(got.Policy) {
		t.Fatalf("%s: policy %q, want %q", label, got.Policy, want.Policy)
	}
	same("local", want.Local, got.Local)
	if len(got.Remote) != len(want.Remote) || len(got.Watermark) != len(want.Watermark) {
		t.Fatalf("%s: %d mirrors and %d watermarks, want %d and %d", label,
			len(got.Remote), len(got.Watermark), len(want.Remote), len(want.Watermark))
	}
	for peer, recs := range want.Remote {
		same("mirror of "+peer, recs, got.Remote[peer])
		if !got.Watermark[peer].Equal(want.Watermark[peer]) {
			t.Fatalf("%s: watermark of %s is %v, want %v", label, peer, got.Watermark[peer], want.Watermark[peer])
		}
	}
}

// TestSnapshotEncodeDecodeRoundTrip: random states — awkward floats, empty
// mirrors, with and without a policy — come back from Snapshot → Open →
// Replay bit for bit, as a policy frame when there is a policy, one local
// set announcing the peer frames, and one remote set per peer in site order.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		st := randState(rng)
		d, _ := snapshotAndReopen(t, st)
		got := replayAll(t, d)
		statesEqual(t, fmt.Sprintf("state %d", i), st, stateOf(t, got))
		kinds := []usage.MutationKind{}
		if st.Policy != nil {
			kinds = append(kinds, usage.MutPolicy)
		}
		kinds = append(kinds, usage.MutLocalSet)
		for range st.Remote {
			kinds = append(kinds, usage.MutRemoteSet)
		}
		if len(got) != len(kinds) {
			t.Fatalf("state %d: %d frames, want %d", i, len(got), len(kinds))
		}
		for k, m := range got {
			if m.Kind != kinds[k] {
				t.Fatalf("state %d: frame %d has kind %d, want %d", i, k, m.Kind, kinds[k])
			}
			if m.Kind == usage.MutLocalSet && m.Watermark != int64(len(st.Remote)) {
				t.Fatalf("state %d: local set announces %d frames, want %d", i, m.Watermark, len(st.Remote))
			}
			if k > 0 && m.Kind == usage.MutRemoteSet && got[k-1].Kind == usage.MutRemoteSet && got[k-1].Site >= m.Site {
				t.Fatalf("state %d: peer frames out of order: %q then %q", i, got[k-1].Site, m.Site)
			}
		}
		d.Close()
	}
}

// TestSnapshotDecodeRejectsDamage: a snapshot cut at any byte offset — a
// frame boundary included — or with any one bit flipped fails Open with a
// *CorruptionError naming the snapshot; no prefix of it is ever loaded.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	st := &SnapshotState{
		Policy: []byte(`{"root":{}}`),
		Local: []usage.Record{
			{User: "alice", IntervalStart: time.Unix(3600, 0).UTC(), CoreSeconds: 1.0 / 3.0},
			{User: "bob", IntervalStart: time.Unix(7200, 0).UTC(), CoreSeconds: 7200},
		},
		Remote: map[string][]usage.Record{
			"p1": {{User: "carol", Site: "p1", IntervalStart: time.Unix(3600, 0).UTC(), CoreSeconds: 60}},
			"p2": nil,
		},
		Watermark: map[string]time.Time{"p1": time.Unix(3600, 0).UTC(), "p2": time.Unix(7200, 0).UTC()},
	}
	d, master := snapshotAndReopen(t, st)
	d.Close()
	snap, err := os.ReadFile(filepath.Join(master, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(master, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	refused := func(label string, data []byte) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, snapshotName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(Options{Dir: dir, Metrics: telemetry.NewRegistry()})
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Path != path {
			if d != nil {
				d.Close()
			}
			t.Fatalf("%s: Open = %v, want a CorruptionError naming %s", label, err, path)
		}
	}
	for cut := 0; cut < len(snap); cut++ {
		refused(fmt.Sprintf("cut at %d of %d", cut, len(snap)), snap[:cut])
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), snap...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= 1 << rng.Intn(8)
		refused(fmt.Sprintf("bit flip at %d", pos), bad)
	}
}

// TestSnapshotRetiredFormatRefused: a snapshot in the format that predates
// WAL-framed snapshots is refused by name, not read as damage or skipped.
func TestSnapshotRetiredFormatRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), []byte(retiredSnapMagic+"\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := createSegment(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(Options{Dir: dir, Metrics: telemetry.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "retired AEQSNAP1 format") {
		t.Fatalf("Open on an AEQSNAP1 snapshot = %v, want it refused as the retired format", err)
	}
}

// TestSnapshotCompactsAndPrunes: after a snapshot, recovery replays the
// snapshot's frames and then only the post-rotation WAL tail, and
// superseded segments/snapshots are removed from disk.
func TestSnapshotCompactsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d)
	commitN(t, d, 10, 0)

	captured := &SnapshotState{
		Local: []usage.Record{{
			User: "alice", Site: "s00",
			IntervalStart: time.Unix(3600, 0).UTC(),
			CoreSeconds:   12.5,
		}},
		Remote:    map[string][]usage.Record{},
		Watermark: map[string]time.Time{},
	}
	if err := d.Snapshot(func() (*SnapshotState, error) { return captured, nil }); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	commitN(t, d, 4, 100)
	// Second snapshot cycle to exercise pruning of snapshot 1.
	if err := d.Snapshot(func() (*SnapshotState, error) { return captured, nil }); err != nil {
		t.Fatalf("Snapshot 2: %v", err)
	}
	commitN(t, d, 3, 200)
	d.Close()

	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("segment 0 not pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(1))); !os.IsNotExist(err) {
		t.Fatalf("snapshot 1 not pruned: %v", err)
	}

	d2 := openTest(t, dir, SyncAlways)
	got := replayAll(t, d2)
	if len(got) != 1+3 {
		t.Fatalf("replayed %d mutations, want the snapshot's local set and 3 tail records", len(got))
	}
	statesEqual(t, "recovered snapshot", captured, stateOf(t, got[:1]))
	for i, m := range got[1:] {
		if !mutationsEqual(m, testMutation(200+i)) {
			t.Fatalf("tail record %d is not the post-snapshot commit %d", i, 200+i)
		}
	}
}

// TestCommitBlocksUntilReplay: a commit racing recovery waits for the tail
// to be applied instead of interleaving with it.
func TestCommitBlocksUntilReplay(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d)
	commitN(t, d, 5, 0)
	d.Close()

	d2 := openTest(t, dir, SyncAlways)
	applied := make(chan struct{})
	go func() {
		if err := d2.Commit(testMutation(50), func() { close(applied) }); err != nil {
			t.Errorf("blocked commit failed: %v", err)
		}
	}()
	select {
	case <-applied:
		t.Fatal("commit applied before replay finished")
	case <-time.After(50 * time.Millisecond):
	}
	replayed := replayAll(t, d2)
	select {
	case <-applied:
	case <-time.After(2 * time.Second):
		t.Fatal("commit still blocked after replay")
	}
	if len(replayed) != 5 {
		t.Fatalf("replay saw %d records, want 5 — the blocked commit leaked into the tail", len(replayed))
	}
}

// TestFrozenRecordsServedDuringRecovery: between Open and the end of
// Replay — while the snapshot's local-set frame is applied too —
// FrozenRecordsSince answers from that frame; after replay it defers to the
// live path.
func TestFrozenRecordsServedDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d)
	st := &SnapshotState{
		Local: []usage.Record{
			{User: "a", Site: "s00", IntervalStart: time.Unix(3600, 0).UTC(), CoreSeconds: 1},
			{User: "a", Site: "s00", IntervalStart: time.Unix(7200, 0).UTC(), CoreSeconds: 2},
			{User: "b", Site: "s00", IntervalStart: time.Unix(7200, 0).UTC(), CoreSeconds: 3},
		},
		Remote:    map[string][]usage.Record{},
		Watermark: map[string]time.Time{},
	}
	if err := d.Snapshot(func() (*SnapshotState, error) { return st, nil }); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	commitN(t, d, 2, 0)
	d.Close()

	d2 := openTest(t, dir, SyncAlways)
	recs, ok := d2.FrozenRecordsSince("s00", time.Unix(7200, 0))
	if !ok {
		t.Fatal("frozen serving unavailable while recovering")
	}
	if len(recs) != 2 {
		t.Fatalf("frozen since filter returned %d records, want 2", len(recs))
	}
	for i, r := range recs {
		if w := st.Local[1+i]; r != w {
			t.Fatalf("frozen record %d is %+v, want %+v", i, r, w)
		}
	}
	if err := d2.Replay(func(m *usage.Mutation) error {
		if recs, ok := d2.FrozenRecordsSince("s00", time.Time{}); !ok || len(recs) != len(st.Local) {
			t.Errorf("mid-replay frozen serving: %d records, %v", len(recs), ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.FrozenRecordsSince("s00", time.Time{}); ok {
		t.Fatal("frozen serving still active after replay")
	}
}

// TestOneFsyncPerCommit is the group-commit contract at the log layer: one
// Commit — whatever the mutation's size — costs exactly one fsync under
// SyncAlways, and zero under SyncNone.
func TestOneFsyncPerCommit(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncAlways)
	replayAll(t, d)

	big := &usage.Mutation{Kind: usage.MutLocalBatch}
	for i := 0; i < 1000; i++ {
		big.Ops = append(big.Ops, usage.BinOp{User: "u", Start: int64(i) * 3600, Value: 1})
	}
	before := d.Stats()
	if err := d.Commit(big, nil); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	after := d.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Fatalf("1000-op batch commit cost %d fsyncs, want exactly 1", got)
	}
	if after.Records-before.Records != 1 {
		t.Fatalf("batch counted as %d records, want 1", after.Records-before.Records)
	}

	dn := openTest(t, t.TempDir(), SyncNone)
	replayAll(t, dn)
	if err := dn.Commit(big, nil); err != nil {
		t.Fatalf("SyncNone commit: %v", err)
	}
	if s := dn.Stats(); s.Fsyncs != 0 {
		t.Fatalf("SyncNone performed %d fsyncs", s.Fsyncs)
	}
}

func TestReadyLifecycle(t *testing.T) {
	d := openTest(t, t.TempDir(), SyncNone)
	if d.Ready() {
		t.Fatal("ready before replay")
	}
	if !d.Recovering() {
		t.Fatal("fresh log should start recovering (empty tail)")
	}
	replayAll(t, d)
	if d.Recovering() {
		t.Fatal("recovering after replay")
	}
	if d.Ready() {
		t.Fatal("ready before MarkReady")
	}
	d.MarkReady()
	if !d.Ready() {
		t.Fatal("not ready after MarkReady")
	}
}

// TestReplayProgress: progress counts every pending mutation, the
// snapshot's frames (a policy, the local set, one per peer) as well as the
// WAL tail, and advances after each apply.
func TestReplayProgress(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncNone)
	replayAll(t, d)
	commitN(t, d, 7, 0)
	d.Close()

	for _, want := range []int64{7, 1 + 1 + 2 + 3} {
		d2 := openTest(t, dir, SyncNone)
		if done, total := d2.ReplayProgress(); done != 0 || total != want {
			t.Fatalf("pre-replay progress %d/%d, want 0/%d", done, total, want)
		}
		seen := 0
		if err := d2.Replay(func(m *usage.Mutation) error {
			seen++
			if done, _ := d2.ReplayProgress(); done != int64(seen-1) {
				t.Fatalf("progress %d while applying record %d", done, seen)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if done, total := d2.ReplayProgress(); done != want || total != want {
			t.Fatalf("post-replay progress %d/%d, want %d/%d", done, total, want, want)
		}
		// The second pass recovers a snapshot with a policy and two peers
		// plus three tail records.
		if err := d2.Snapshot(func() (*SnapshotState, error) {
			return &SnapshotState{Policy: []byte(`{}`), Remote: map[string][]usage.Record{"p1": nil, "p2": nil},
				Watermark: map[string]time.Time{"p1": time.Unix(1, 0), "p2": time.Unix(2, 0)}}, nil
		}); err != nil {
			t.Fatal(err)
		}
		commitN(t, d2, 3, 0)
		d2.Close()
	}
}

func TestSnapshotWhileRecoveringRefused(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, dir, SyncNone)
	replayAll(t, d)
	commitN(t, d, 1, 0)
	d.Close()
	d2 := openTest(t, dir, SyncNone)
	err := d2.Snapshot(func() (*SnapshotState, error) {
		return &SnapshotState{}, nil
	})
	if err == nil {
		t.Fatal("snapshot accepted while recovering")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseSyncPolicy("none"); err != nil || p != SyncNone {
		t.Fatalf("none: %v %v", p, err)
	}
	if _, err := ParseSyncPolicy("maybe"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestFloatFidelityThroughSnapshot: awkward float64 values — in the local
// image and in a mirror — survive Snapshot → Open → Replay bit for bit; a
// site without a policy writes no policy frame, and a peer whose mirror is
// empty keeps its frame and its watermark.
func TestFloatFidelityThroughSnapshot(t *testing.T) {
	st := &SnapshotState{
		Remote:    map[string][]usage.Record{"empty": nil},
		Watermark: map[string]time.Time{"empty": time.Unix(7200, 0).UTC(), "p": time.Unix(0, 1).UTC()},
	}
	for i, v := range awkward {
		rec := usage.Record{User: "u", IntervalStart: time.Unix(int64(i)*3600, 0).UTC(), CoreSeconds: v}
		st.Local = append(st.Local, rec)
		st.Remote["p"] = append(st.Remote["p"], rec)
	}
	d, _ := snapshotAndReopen(t, st)
	got := replayAll(t, d)
	if len(got) != 3 || got[0].Kind != usage.MutLocalSet {
		t.Fatalf("%d frames starting with kind %d, want the local set and two peers", len(got), got[0].Kind)
	}
	statesEqual(t, "awkward floats", st, stateOf(t, got))
}
