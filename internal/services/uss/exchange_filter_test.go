package uss

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/durability"
	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// walMutations opens the closed log in dir and returns the frames a recovery
// would replay, in commit order.
func walMutations(t *testing.T, dir string) []*usage.Mutation {
	t.Helper()
	d := openLog(t, dir, durability.SyncAlways)
	var out []*usage.Mutation
	if err := d.Replay(func(m *usage.Mutation) error { out = append(out, m); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDurableExchangeLogsOnlyChanges: every pull re-fetches the open and the
// previous bin whole, and what the mirror already holds bit for bit must
// reach neither the WAL nor SetRecords. Of N records pulled of which k change
// the mirror, the committed MutRemoteSet carries k ops; the mirror and the
// watermark end where an unfiltered SetRecords of every pull ends (overwrites
// up and down, a removal, a user's first bin, a new bin of a known user); a
// pull that changes nothing and moves no watermark commits no frame and does
// not fsync; one that changes no bin but moves the watermark commits an empty
// set; and Exchange keeps returning the number of records pulled.
func TestDurableExchangeLogsOnlyChanges(t *testing.T) {
	dir := t.TempDir()
	s, d := newDurableUSS(t, dir, durability.SyncAlways)
	if err := d.Replay(s.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	h := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Hour) }
	rec := func(user string, hour int, v float64) usage.Record {
		return usage.Record{User: user, Site: "p", IntervalStart: h(hour), CoreSeconds: v}
	}
	peer := &okPeer{site: "p"}
	s.AddPeer(peer)
	unfiltered := usage.NewHistogram(time.Hour) // the mirror an unfiltered puller would hold

	rounds := []struct {
		name           string
		recs           []usage.Record // what the peer holds, sorted by user then bin
		pulled, logged int            // records this pull returns; ops it may commit (-1: no frame)
	}{
		{"first pull", []usage.Record{
			rec("alice", 0, 3600), rec("alice", 1, 1800), rec("bob", 0, 7200), rec("bob", 1, 900),
			rec("carol", 1, 450.25), rec("dave", 0, 60), rec("dave", 1, 120),
		}, 7, 7},
		{"re-fetch with four changes", []usage.Record{
			rec("alice", 0, 3600), rec("alice", 1, 1800), // as held
			rec("bob", 0, 7200), rec("bob", 1, 1350.5), // the open bin grew
			rec("carol", 1, 449.75),               // shrank
			rec("dave", 0, 60), rec("dave", 1, 0), // removed
			rec("erin", 1, 86400), // a user's first bin
		}, 8, 4},
		{"re-fetch of what is held", nil, 8, -1},
		{"a new bin", []usage.Record{
			rec("alice", 0, 3600), rec("alice", 1, 1800), rec("alice", 2, 30),
			rec("bob", 0, 7200), rec("bob", 1, 1350.5), rec("carol", 1, 449.75),
			rec("dave", 0, 60), rec("erin", 1, 86400),
		}, 8, 1}, // since is hour 0 still: the watermark was hour 1
		{"only the watermark moves", []usage.Record{
			rec("alice", 1, 1800), rec("alice", 2, 30), rec("bob", 1, 1350.5), rec("carol", 1, 449.75),
			rec("erin", 1, 86400), rec("zed", 3, 0), // removes a bin that is not there
		}, 6, 0},
	}
	var wantFrames []int
	pulled := 0
	for _, r := range rounds {
		pulled += r.pulled
		if r.recs != nil {
			peer.recs = r.recs
		}
		since := s.CaptureState().Watermark["p"]
		if !since.IsZero() {
			since = since.Add(-time.Hour)
		}
		pull, _ := peer.RecordsSince(context.Background(), since)
		unfiltered.SetRecords(pull)
		before := d.Stats()

		n, err := s.Exchange(context.Background())
		if err != nil || n != r.pulled {
			t.Fatalf("%s: Exchange = %d, %v; want %d records pulled", r.name, n, err, r.pulled)
		}
		after := d.Stats()
		if r.logged < 0 {
			if after != before {
				t.Errorf("%s: WAL moved from %+v to %+v, want no frame and no fsync", r.name, before, after)
			}
		} else {
			wantFrames = append(wantFrames, r.logged)
			if after.Records != before.Records+1 || after.Fsyncs != before.Fsyncs+1 {
				t.Errorf("%s: WAL moved from %+v to %+v, want one frame", r.name, before, after)
			}
		}
		st := s.CaptureState()
		recordsBitEqual(t, r.name+": mirror vs unfiltered SetRecords", unfiltered.Records("p"), st.Remote["p"])
		newest := time.Time{}
		for _, rc := range peer.recs {
			if rc.IntervalStart.After(newest) {
				newest = rc.IntervalStart
			}
		}
		if wm := st.Watermark["p"]; !wm.Equal(newest) {
			t.Errorf("%s: watermark %v, want %v", r.name, wm, newest)
		}
	}
	var buf bytes.Buffer
	if err := s.cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`aequus_uss_exchange_records_total{peer="p"} %d`, pulled); !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q: the counter counts records pulled", want)
	}

	want := s.CaptureState()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	frames := walMutations(t, dir)
	if len(frames) != len(wantFrames) {
		t.Fatalf("WAL holds %d frames, want %d", len(frames), len(wantFrames))
	}
	for i, m := range frames {
		if m.Kind != usage.MutRemoteSet || m.Site != "p" || len(m.Ops) != wantFrames[i] {
			t.Errorf("frame %d: kind %d site %q with %d ops, want a MutRemoteSet of p with %d", i, m.Kind, m.Site, len(m.Ops), wantFrames[i])
		}
	}
	// And the filtered log rebuilds the same mirror.
	s2, d2 := newDurableUSS(t, dir, durability.SyncAlways)
	if err := d2.Replay(s2.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	statesBitEqual(t, "replayed", want, s2.CaptureState())
}

// statesBitEqual compares two durable images field by field, values by bits.
func statesBitEqual(t *testing.T, label string, want, got *durability.SnapshotState) {
	t.Helper()
	recordsBitEqual(t, label+": local", want.Local, got.Local)
	if len(want.Remote) != len(got.Remote) || len(want.Watermark) != len(got.Watermark) {
		t.Fatalf("%s: %d/%d mirrors, %d/%d watermarks", label, len(got.Remote), len(want.Remote), len(got.Watermark), len(want.Watermark))
	}
	for peer, recs := range want.Remote {
		recordsBitEqual(t, label+": mirror of "+peer, recs, got.Remote[peer])
		if !got.Watermark[peer].Equal(want.Watermark[peer]) {
			t.Fatalf("%s: watermark of %s: %v vs %v", label, peer, got.Watermark[peer], want.Watermark[peer])
		}
	}
}

// TestDurableExchangeReplayBitIdentical: three durable sites ingest and
// exchange for 20 rounds of 20 simulated minutes — so every pull re-fetches
// mostly unchanged bins and the WAL holds filtered sets — with a snapshot on
// the way. Rebuilding each site from its directory reproduces CaptureState
// bit for bit.
func TestDurableExchangeReplayBitIdentical(t *testing.T) {
	clock := simclock.NewSim(t0)
	names := []string{"a", "b", "c"}
	dirs := make([]string, len(names))
	sites := make([]*Service, len(names))
	logs := make([]*durability.Log, len(names))
	open := func(i int) {
		logs[i] = openLog(t, dirs[i], durability.SyncNone)
		sites[i] = New(Config{Site: names[i], BinWidth: time.Hour, Contribute: true, Clock: clock,
			Metrics: telemetry.NewRegistry(), Durable: logs[i]})
		if err := logs[i].Replay(sites[i].ApplyMutation); err != nil {
			t.Fatal(err)
		}
	}
	for i := range names {
		dirs[i] = t.TempDir()
		open(i)
	}
	for i, s := range sites {
		for j, p := range sites {
			if i != j {
				s.AddPeer(p)
			}
		}
	}
	rng := rand.New(rand.NewSource(19))
	pulled := 0
	for round := 0; round < 20; round++ {
		clock.Advance(20 * time.Minute)
		for _, s := range sites {
			var jobs []JobReport
			for k := 0; k < 40; k++ {
				dur := time.Duration(1+rng.Intn(90)) * time.Minute
				jobs = append(jobs, JobReport{User: fmt.Sprintf("user%03d", rng.Intn(150)),
					Start: clock.Now().Add(-dur), Duration: dur, Procs: 1 + rng.Intn(16)})
			}
			s.ReportJobBatch(jobs)
		}
		for _, s := range sites {
			n, err := s.Exchange(context.Background())
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, s.Site(), err)
			}
			pulled += n
		}
		if round == 9 {
			if err := logs[0].Snapshot(func() (*durability.SnapshotState, error) { return sites[0].CaptureState(), nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range names {
		want := sites[i].CaptureState()
		if err := logs[i].Close(); err != nil {
			t.Fatal(err)
		}
		// A's log starts with the snapshot's frames: its local set and a
		// whole mirror of each peer, which the pull did not write.
		logged, snapshotFrames := 0, 0
		for _, m := range walMutations(t, dirs[i]) {
			if m.Kind == usage.MutLocalSet {
				snapshotFrames = int(m.Watermark)
			} else if m.Kind == usage.MutRemoteSet && snapshotFrames > 0 {
				snapshotFrames--
			} else if m.Kind == usage.MutRemoteSet {
				logged += len(m.Ops)
			}
		}
		if logged*2 > pulled/3 {
			t.Errorf("%s logged %d remote ops of about %d records pulled: the pull is not filtered", names[i], logged, pulled/3)
		}
		open(i)
		statesBitEqual(t, "site "+names[i], want, sites[i].CaptureState())
	}
}

// TestExchangeRefusesNonFiniteUsage: a pull that carries a NaN or an infinite
// value — through any Peer; the canonical body can hold one where JSON could
// not — is refused whole. Histogram, WAL and watermark stay exactly as the
// last good pull left them, the failure is counted for the peer and through
// its breaker, and /readyz's source for the cause names it.
func TestExchangeRefusesNonFiniteUsage(t *testing.T) {
	for name, bad := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		t.Run(name, func(t *testing.T) {
			d := openLog(t, t.TempDir(), durability.SyncAlways)
			reg := telemetry.NewRegistry()
			s := New(Config{Site: "s", BinWidth: time.Hour, Contribute: true, Clock: simclock.NewSim(t0), Metrics: reg,
				Durable: d, Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour}})
			if err := d.Replay(s.ApplyMutation); err != nil {
				t.Fatal(err)
			}
			peer := &okPeer{site: "p", recs: []usage.Record{
				{User: "alice", Site: "p", IntervalStart: t0, CoreSeconds: 3600},
			}}
			s.AddPeer(peer)
			if n, err := s.Exchange(context.Background()); n != 1 || err != nil {
				t.Fatalf("good pull = %d, %v", n, err)
			}
			before, wal := s.CaptureState(), d.Stats()

			peer.recs = []usage.Record{
				{User: "alice", Site: "p", IntervalStart: t0, CoreSeconds: 7200},
				{User: "bob", Site: "p", IntervalStart: t0.Add(time.Hour), CoreSeconds: bad},
				{User: "carol", Site: "p", IntervalStart: t0.Add(2 * time.Hour), CoreSeconds: 60},
			}
			n, err := s.Exchange(context.Background())
			if n != 0 || err == nil || !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), "bob") {
				t.Fatalf("pull with %s = %d, %v; want it refused, naming the record", name, n, err)
			}
			statesBitEqual(t, "after the refused pull", before, s.CaptureState())
			if got := d.Stats(); got != wal {
				t.Errorf("WAL moved from %+v to %+v", wal, got)
			}
			st := s.PeerStatuses()[0]
			if st.ConsecutiveFailures != 1 || !strings.Contains(st.LastError, "non-finite") || st.Breaker != "open" {
				t.Errorf("peer status %+v, want one failure naming the cause and an open breaker", st)
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				`aequus_uss_exchange_errors_total{peer="p"} 1`,
				`aequus_uss_exchange_records_total{peer="p"} 1`,
			} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("metrics missing %q", want)
				}
			}
		})
	}
}
