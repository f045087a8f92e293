package httpapi

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/usage"
	"repro/internal/wire"
)

// TestUsageBatchIngest drives the batch-ingest route a resource manager
// reports a scheduling pass through: many job completions land in one POST
// and accumulate exactly like the equivalent sequence of single reports.
func TestUsageBatchIngest(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "siteA", clock, map[string]float64{"alice": 0.5, "bob": 0.5})
	c := NewClient(s.server.URL, "siteA")

	// Jobs that completed just before t0 (completion-time attribution puts
	// them in bins at or before "now").
	err := c.ReportJobBatch([]wire.UsageReport{
		{User: "alice", Start: t0.Add(-2 * time.Hour), DurationSeconds: 3600, Procs: 2},
		{User: "alice", Start: t0.Add(-90 * time.Minute), DurationSeconds: 1800, Procs: 1},
		{User: "bob", Start: t0.Add(-time.Hour), DurationSeconds: 1800, Procs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	clock.Advance(time.Minute)
	totals := s.uss.GlobalTotals(clock.Now(), usage.None{})
	if got, want := totals["alice"], 2*3600.0+1800.0; got != want {
		t.Errorf("alice core-seconds = %v, want %v", got, want)
	}
	if got, want := totals["bob"], 1800.0; got != want {
		t.Errorf("bob core-seconds = %v, want %v", got, want)
	}
}

// TestUsageBatchKeepsNanoseconds: a report sent over HTTP books what the
// same report books in process, bit for bit, although its duration travels
// as float seconds: 1.000000015 s, or 19h18m54.598140041s, times 1e9 falls
// just short of the whole nanoseconds it stands for, which truncating would
// book 1 ns short.
func TestUsageBatchKeepsNanoseconds(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "siteA", clock, map[string]float64{"alice": 0.5, "bob": 0.5})
	twin := uss.New(uss.Config{Site: "siteA", BinWidth: time.Minute, Contribute: true, Clock: clock})
	c := NewClient(s.server.URL, "siteA")
	start := t0.Add(-20 * time.Hour)
	for user, dur := range map[string]time.Duration{
		"alice": time.Second + 15*time.Nanosecond,
		"bob":   19*time.Hour + 18*time.Minute + 54598140041*time.Nanosecond,
	} {
		if err := c.ReportJobBatch([]wire.UsageReport{{User: user, Start: start, DurationSeconds: dur.Seconds(), Procs: 3}}); err != nil {
			t.Fatal(err)
		}
		twin.ReportJob(user, start, dur, 3)
	}
	sameRecords(t, "over HTTP vs in process", twin.LocalRecords(), s.uss.LocalRecords())
}

// TestUsageBatchRejectsInvalid: one bad report poisons the whole batch with
// a 400 and nothing is ingested — partial application would make retries
// (which the client never does for ingest) double-count the good entries.
func TestUsageBatchRejectsInvalid(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "siteA", clock, map[string]float64{"alice": 1})
	c := NewClient(s.server.URL, "siteA")

	err := c.ReportJobBatch([]wire.UsageReport{
		{User: "alice", Start: t0.Add(-time.Hour), DurationSeconds: 3600, Procs: 1},
		{User: "", Start: t0.Add(-time.Hour), DurationSeconds: 60, Procs: 1},
	})
	if err == nil {
		t.Fatal("batch with empty user accepted")
	}
	err = c.ReportJobBatch([]wire.UsageReport{
		{User: "alice", Start: t0.Add(-time.Hour), DurationSeconds: -5, Procs: 1},
	})
	if err == nil {
		t.Fatal("batch with negative duration accepted")
	}

	clock.Advance(time.Minute)
	if totals := s.uss.GlobalTotals(clock.Now(), usage.None{}); len(totals) != 0 {
		t.Errorf("rejected batches still ingested usage: %v", totals)
	}
}

// TestUsageBatchRejectsUnrepresentableDuration: a duration past what a
// time.Duration holds is a 400 for the whole batch, before any report lands.
// Converting it would give an implementation-defined result (MinInt64 on
// amd64, which the ingest skipped while the 200 still counted the report).
// The largest durations that fit are still booked.
func TestUsageBatchRejectsUnrepresentableDuration(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "siteA", clock, map[string]float64{"alice": 1})
	post := func(seconds string) int {
		t.Helper()
		body := `{"reports":[{"user":"alice","start":"2026-01-01T00:00:00Z","durationSeconds":60,"procs":1},` +
			`{"user":"alice","start":"2026-01-01T00:00:00Z","durationSeconds":` + seconds + `,"procs":1}]}`
		resp, err := http.Post(s.server.URL+"/usage/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, seconds := range []string{"9.3e9", "1e10", "1e300", "9.3e18"} {
		if code := post(seconds); code != http.StatusBadRequest {
			t.Errorf("durationSeconds %s: status %d, want 400", seconds, code)
		}
		if recs := s.uss.LocalRecords(); len(recs) != 0 {
			t.Fatalf("durationSeconds %s: a refused batch booked %v", seconds, recs)
		}
	}
	if code := post("9.2e9"); code != http.StatusOK {
		t.Fatalf("durationSeconds 9.2e9 (fits a time.Duration): status %d, want 200", code)
	}
	var booked float64
	for _, r := range s.uss.LocalRecords() {
		booked += r.CoreSeconds
	}
	if want := 60 + 9.2e9; booked != want {
		t.Errorf("booked %v core-seconds, want %v", booked, want)
	}
}

// FuzzUsageBatch drives the ingest route's own handler, body cap included,
// with arbitrary bodies. Nothing may panic; the answer is 200, 400 or 413; a
// refused body books nothing; and an accepted one books, per user and bin,
// exactly the sum over its valid reports of seconds × max(procs, 1), in
// report order — the arithmetic of uss.ReportJobBatch. The seed corpus under
// testdata/fuzz/FuzzUsageBatch holds a valid two-report body, an empty
// batch, and a batch with an invalid report at index 1.
func FuzzUsageBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		u := uss.New(uss.Config{Site: "siteA", BinWidth: time.Minute, Contribute: true, Clock: simclock.NewSim(t0)})
		srv := NewServer(nil, u, nil, nil, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/usage/batch", bytes.NewReader(body)))
		got := u.LocalRecords()
		switch w.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(got) != 0 {
				t.Fatalf("a %d booked %v", w.Code, got)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var req wire.UsageBatchRequest
		if err := wire.ReadJSON(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("a 200 for a body that does not decode: %v", err)
		}
		type bin struct {
			user  string
			start int64 // unix seconds
		}
		want := map[bin]float64{}
		for _, rep := range req.Reports {
			d := time.Duration(math.Round(rep.DurationSeconds * float64(time.Second)))
			if d <= 0 {
				continue
			}
			k := bin{rep.User, u.LocalHistogram().AlignStart(rep.Start.Add(d))}
			want[k] += d.Seconds() * float64(max(rep.Procs, 1))
		}
		if len(got) != len(want) {
			t.Fatalf("booked %d bins, want %d: %v", len(got), len(want), got)
		}
		for _, r := range got {
			if w := want[bin{r.User, r.IntervalStart.Unix()}]; r.CoreSeconds != w {
				t.Fatalf("%s at %v: booked %v core-seconds, want %v", r.User, r.IntervalStart, r.CoreSeconds, w)
			}
		}
	})
}

func TestUsageBatchMethodAndBody(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "siteA", clock, map[string]float64{"alice": 1})

	resp, err := http.Get(s.server.URL + "/usage/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /usage/batch = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(s.server.URL+"/usage/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
}

// TestOverlongBodyIsNamed: a body past wire's 8 MiB cap is answered with 413
// and wire.ErrBodyTooLarge on the server, and returned as that error by a
// client whose peer pull is answered with one — not as the "unexpected EOF"
// or the decode error of a body cut at the cap, which would name no cause on
// /readyz.
func TestOverlongBodyIsNamed(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "siteA", clock, map[string]float64{"alice": 1})
	// 9 MiB of well-formed input either way: a JSON batch of reports, and a
	// canonical records body.
	report := `{"user":"alice","durationSeconds":1,"procs":1},`
	many := strings.Repeat(report, 9<<20/len(report)+1)
	many = many[:len(many)-1]

	resp, err := http.Post(s.server.URL+"/usage/batch", "application/json",
		strings.NewReader(`{"reports":[`+many+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	err = wire.DecodeResponse(resp, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err == nil ||
		!strings.Contains(err.Error(), wire.ErrBodyTooLarge.Error()) {
		t.Errorf("9 MiB /usage/batch = %d (%v), want 413 naming %q", resp.StatusCode, err, wire.ErrBodyTooLarge)
	}
	clock.Advance(time.Minute)
	if totals := s.uss.GlobalTotals(clock.Now(), usage.None{}); len(totals) != 0 {
		t.Errorf("the refused batch still ingested usage: %v", totals)
	}

	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.RecordsContentType)
		_, _ = w.Write(shortestOps("siteB", 9<<20/4))
	}))
	defer big.Close()
	_, err = NewClient(big.URL, "siteB").RecordsSince(context.Background(), time.Time{})
	if !errors.Is(err, wire.ErrBodyTooLarge) {
		t.Errorf("client reading a 9 MiB response: %v, want ErrBodyTooLarge", err)
	}
}
