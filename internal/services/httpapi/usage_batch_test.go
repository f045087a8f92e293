package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
