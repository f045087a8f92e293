package httpapi

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durability"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/usage"
	"repro/internal/wire"
)

func sameRecords(t *testing.T, label string, want, got []usage.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.User != w.User || g.Site != w.Site || !g.IntervalStart.Equal(w.IntervalStart) ||
			math.Float64bits(g.CoreSeconds) != math.Float64bits(w.CoreSeconds) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// pullsMatchInProcess checks, for a few `since` values, that a pull through
// server and client returns what USS.RecordsSince returns in-process, and that
// the route answers a plain GET with that same canonical body.
func pullsMatchInProcess(t *testing.T, label string, s *site, sinces ...time.Time) {
	t.Helper()
	c := NewClient(s.server.URL, s.name)
	for _, since := range sinces {
		want, err := s.uss.RecordsSince(context.Background(), since)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.RecordsSince(context.Background(), since)
		if err != nil {
			t.Fatalf("%s: pull since %v: %v", label, since, err)
		}
		sameRecords(t, fmt.Sprintf("%s: pull since %v", label, since), want, got)

		url := s.server.URL + "/usage/records"
		if !since.IsZero() {
			url += "?since=" + since.Format(time.RFC3339Nano)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := wire.ReadBody(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); err != nil || ct != wire.RecordsContentType {
			t.Fatalf("%s: GET %s answered %q (%v)", label, url, ct, err)
		}
		m, err := usage.DecodeMutation(body)
		if err != nil || m.Kind != usage.MutRemoteSet || m.Site != s.name {
			t.Fatalf("%s: body: %v, %+v", label, err, m)
		}
		sameRecords(t, label+": body", want, m.Records(m.Site))
	}
}

// TestPeerPullMatchesInProcess: the canonical body is one more way to carry
// what USS.RecordsSince returns and must carry exactly that, record for record
// and bit for bit, from the live histogram and from the frozen pre-crash image
// a recovering site serves.
func TestPeerPullMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewSim(t0)
	base := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	s1, d1 := newDurableSite(t, "site-a", dir, clock)
	if err := d1.Replay(s1.uss.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	var jobs []uss.JobReport
	for i := 0; i < 400; i++ {
		jobs = append(jobs, uss.JobReport{
			User:     fmt.Sprintf("/vo%d/project%02d/user%03d", i%3, i%17, i%90),
			Start:    base.Add(time.Duration(i) * 7 * time.Minute),
			Duration: time.Duration(1000+i*37) * time.Millisecond * 61, // sums that are no round numbers
			Procs:    1 + i%12,
		})
	}
	s1.uss.ReportJobBatch(jobs)
	s1.uss.ReportJob("änne", base.Add(-400*24*time.Hour), time.Hour, 3) // long before the rest
	mid := base.Add(20 * time.Hour)
	pullsMatchInProcess(t, "live", s1, time.Time{}, mid, base.Add(1000*time.Hour))
	// With 250 ms bins, the watermark less one bin width falls between whole
	// seconds, and it crosses the wire as it is: a pull from 1.75 s returns
	// the bin at 2 s, not also the one at 1 s.
	fine := uss.New(uss.Config{Site: "site-q", BinWidth: 250 * time.Millisecond, Contribute: true, Clock: clock})
	fine.ReportJob("alice", base.Add(time.Second), 100*time.Millisecond, 1)
	fine.ReportJob("bob", base.Add(2*time.Second), 100*time.Millisecond, 1)
	fineSrv := httptest.NewServer(NewServer(nil, fine, nil, nil, nil))
	t.Cleanup(fineSrv.Close)
	pullsMatchInProcess(t, "sub-second", &site{name: "site-q", uss: fine, server: fineSrv}, base.Add(1750*time.Millisecond))

	// aequusd labels a peer with its address; the records carry the name the
	// site gave itself.
	got, err := NewClient(s1.server.URL, s1.server.URL).RecordsSince(context.Background(), mid)
	if err != nil || len(got) == 0 || got[0].Site != "site-a" {
		t.Errorf("pull through a client labelled by its address: %v, %+v", err, got)
	}

	// Snapshot, one more report that only the WAL tail holds, and die.
	if err := d1.Snapshot(func() (*durability.SnapshotState, error) { return s1.uss.CaptureState(), nil }); err != nil {
		t.Fatal(err)
	}
	frozen := s1.uss.LocalRecords()
	s1.uss.ReportJob("late", base.Add(30*time.Hour), time.Hour, 8)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, d2 := newDurableSite(t, "site-a", dir, clock)
	if !d2.Recovering() {
		t.Fatal("reopened log is not recovering")
	}
	pullsMatchInProcess(t, "frozen", s2, time.Time{}, mid)
	got, err = NewClient(s2.server.URL, "site-a").RecordsSince(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "frozen pull vs the pre-crash image", frozen, got)
}

// shortestOps is a well-formed canonical body of n four-byte ops.
func shortestOps(site string, n int) []byte {
	b := []byte{1, byte(usage.MutRemoteSet), byte(len(site))}
	b = binary.AppendUvarint(append(b, site...), uint64(n))
	return append(b, make([]byte, 4*n+2)...)
}

// TestPeerPullHalfMillionRecords: at about 100 B of JSON per record a pull
// died on the 8 MiB cap near 80k records; at about 10 B it carries 500k with
// room to spare.
func TestPeerPullHalfMillionRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 500k-record histogram; skipped in -short")
	}
	u := uss.New(uss.Config{Site: "big", BinWidth: time.Hour, Contribute: true, Clock: simclock.NewSim(t0)})
	jobs := make([]uss.JobReport, 500000)
	for i := range jobs {
		jobs[i] = uss.JobReport{User: fmt.Sprintf("user%06d", i/2), Start: t0.Add(time.Duration(i%2) * time.Hour),
			Duration: time.Duration(600+i%3000) * time.Second, Procs: 1 + i%32}
	}
	u.ReportJobBatch(jobs)
	srv := httptest.NewServer(NewServer(nil, u, nil, nil, nil))
	defer srv.Close()

	got, err := NewClient(srv.URL, "big").RecordsSince(context.Background(), time.Time{})
	if err != nil {
		t.Fatalf("500k-record pull: %v", err)
	}
	want, _ := u.RecordsSince(context.Background(), time.Time{})
	if len(want) != len(jobs) {
		t.Fatalf("the site holds %d records, want %d", len(want), len(jobs))
	}
	sameRecords(t, "500k-record pull", want, got)
}

// TestPeerPullRefusesBadAnswers: an answer that is not a canonical body — or
// that carries a value no histogram may hold, or names that decode to far more
// memory than arrived — is refused whole and once. Nothing of it is ingested, write-ahead-logged or
// watermarked; the failure is counted for the peer and /readyz names the
// cause.
func TestPeerPullRefusesBadAnswers(t *testing.T) {
	good := usage.Mutation{Kind: usage.MutRemoteSet, Site: "site-b", Ops: []usage.BinOp{
		{User: "alice", Start: t0.Unix(), Value: 3600},
		{User: "bob", Start: t0.Unix(), Value: 1800.5},
	}}
	with := func(edit func(m *usage.Mutation)) []byte {
		m := good
		m.Ops = append([]usage.BinOp(nil), good.Ops...)
		m.Ops[1].Start += 7200 // would move the watermark
		edit(&m)
		return m.AppendBinary(nil)
	}
	canonical := good.AppendBinary(nil)
	cases := []struct {
		name, ctype string
		body        []byte
		cause       string
	}{
		{"wrong kind", wire.RecordsContentType, with(func(m *usage.Mutation) { m.Kind = usage.MutLocalBatch }), "mutation of kind 2"},
		{"a snapshot's local set", wire.RecordsContentType, with(func(m *usage.Mutation) { m.Kind = usage.MutLocalSet }), "mutation of kind 5"},
		{"truncated body", wire.RecordsContentType, canonical[:len(canonical)-3], "truncated mutation"},
		{"trailing garbage", wire.RecordsContentType, append(append([]byte(nil), canonical...), 0, 1), "trailing bytes"},
		{"JSON answer", "application/json", []byte(`{"records":[{"user":"alice","site":"site-b","intervalStart":"2013-01-01T02:00:00Z","coreSeconds":1}]}`), `content type "application/json"`},
		{"NaN", wire.RecordsContentType, with(func(m *usage.Mutation) { m.Ops[0].Value = math.NaN() }), "non-finite usage NaN"},
		{"+Inf", wire.RecordsContentType, with(func(m *usage.Mutation) { m.Ops[0].Value = math.Inf(1) }), "non-finite usage +Inf"},
		{"names that expand", wire.RecordsContentType, with(func(m *usage.Mutation) {
			// 200 ops of a few bytes, each spelling out a 1 KiB name of its own.
			for i := 0; i < 200; i++ {
				m.Ops = append(m.Ops, usage.BinOp{User: fmt.Sprintf("%s%03d", strings.Repeat("u", 1024), i), Start: t0.Unix(), Value: 1})
			}
		}), "user names expand past 16 times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls, bad atomic.Int64
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				ctype, body := wire.RecordsContentType, canonical
				if bad.Load() == 1 {
					ctype, body = tc.ctype, tc.body
				}
				w.Header().Set("Content-Type", ctype)
				_, _ = w.Write(body)
			}))
			defer peer.Close()

			clock := simclock.NewSim(t0)
			s, d := newDurableSite(t, "site-a", t.TempDir(), clock)
			if err := d.Replay(s.uss.ApplyMutation); err != nil {
				t.Fatal(err)
			}
			s.uss.AddPeer(NewClientWith(peer.URL, "site-b", ClientOptions{Retry: fastRetry(3)}))
			if n, err := s.uss.Exchange(context.Background()); n != 2 || err != nil {
				t.Fatalf("good pull = %d, %v", n, err)
			}
			before, wal := s.uss.CaptureState(), d.Stats()
			if len(before.Remote["site-b"]) != 2 || !before.Watermark["site-b"].Equal(t0) {
				t.Fatalf("after the good pull: %d records mirrored, watermark %v", len(before.Remote["site-b"]), before.Watermark["site-b"])
			}

			bad.Store(1)
			calls.Store(0)
			n, err := s.uss.Exchange(context.Background())
			if n != 0 || err == nil || !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("bad pull = %d, %v; want it refused naming %q", n, err, tc.cause)
			}
			if calls.Load() != 1 {
				t.Errorf("the bad answer was asked for %d times, want once (not retryable)", calls.Load())
			}
			after := s.uss.CaptureState()
			sameRecords(t, "mirror after the refused pull", before.Remote["site-b"], after.Remote["site-b"])
			if got := after.Watermark["site-b"]; !got.Equal(before.Watermark["site-b"]) {
				t.Errorf("watermark moved to %v", got)
			}
			if got := d.Stats(); got != wal {
				t.Errorf("WAL moved from %+v to %+v", wal, got)
			}

			c := NewClient(s.server.URL, "site-a")
			r, err := c.Ready(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			comp := r.Components["uss"]
			if len(comp.Peers) != 1 || comp.Peers[0].ConsecutiveFailures != 1 ||
				!strings.Contains(comp.Peers[0].LastError, tc.cause) || !strings.Contains(comp.Reason, "site-b (failing)") {
				t.Errorf("/readyz uss component = %+v, want site-b failing with %q", comp, tc.cause)
			}
			text, err := c.MetricsText(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !containsLine(text, `aequus_uss_exchange_errors_total{peer="site-b"} 1`) {
				t.Error("the refused pull is not counted in aequus_uss_exchange_errors_total")
			}
		})
	}
}
