package durability_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durability"
	"repro/internal/services/httpapi"
	"repro/internal/services/uss"
	"repro/internal/telemetry"
)

// TestFailedLogOnReadyz: once a failed append poisons a site's log, the
// report it carried is dropped and counted, and /readyz turns the durability
// component not ready for good, naming the cause.
func TestFailedLogOnReadyz(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	d, err := durability.Open(durability.Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	u := uss.New(uss.Config{Site: "s", Contribute: true, Metrics: reg, Durable: d})
	if err := d.Replay(u.ApplyMutation); err != nil {
		t.Fatal(err)
	}
	d.MarkReady()
	srv := httptest.NewServer(httpapi.NewServerWith(nil, u, nil, nil, nil, httpapi.ServerOptions{Registry: reg, Durability: d}))
	defer srv.Close()
	c := httpapi.NewClient(srv.URL, "s")
	durable := func() (bool, string) {
		t.Helper()
		r, err := c.Ready(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		comp := r.Components["durability"]
		if comp.Ready != r.Ready {
			t.Errorf("/readyz ready=%v with the durability component ready=%v", r.Ready, comp.Ready)
		}
		return comp.Ready, comp.Reason
	}
	if ready, reason := durable(); !ready {
		t.Fatalf("healthy log not ready: %q", reason)
	}

	ro, err := os.Open(filepath.Join(dir, "wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := durability.SwapSegment(d, ro)
	defer func() {
		durability.SwapSegment(d, good)
		d.Close()
	}()
	u.ReportJob("alice", time.Unix(0, 0), time.Hour, 1)
	if n := len(u.LocalRecords()); n != 0 {
		t.Errorf("a report the WAL refused reached the histogram (%d records)", n)
	}
	ready, reason := durable()
	if ready || !strings.HasPrefix(reason, "failed: ") || !strings.Contains(reason, "WAL append") {
		t.Errorf("durability component after a failed append = (%v, %q), want not ready, failed: <cause>", ready, reason)
	}
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "aequus_uss_durability_errors_total 1") {
		t.Error("the dropped report is not counted in aequus_uss_durability_errors_total")
	}
}
