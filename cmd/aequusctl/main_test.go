package main

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/services/httpapi"
	"repro/internal/services/uss"
	"repro/internal/telemetry"
)

// TestReportBooksParsedSeconds: `aequusctl report alice 1.001` books over
// HTTP the core-seconds an in-process report of 1001 ms books, bit for bit.
// Converting the parsed seconds to a truncated time.Duration on the way
// would book 1.000999999 s.
func TestReportBooksParsedSeconds(t *testing.T) {
	reg := telemetry.NewRegistry()
	site := uss.New(uss.Config{Site: "s", Contribute: true, Metrics: reg})
	srv := httptest.NewServer(httpapi.NewServerWith(nil, site, nil, nil, nil, httpapi.ServerOptions{Registry: reg}))
	defer srv.Close()
	c := httpapi.NewClientWith(srv.URL, "aequusctl", httpapi.ClientOptions{HTTP: srv.Client(), Metrics: reg})
	if err := cmdReport(c, []string{"alice", "1.001"}); err != nil {
		t.Fatal(err)
	}
	twin := uss.New(uss.Config{Site: "s", Contribute: true, Metrics: telemetry.NewRegistry()})
	twin.ReportJob("alice", time.Now(), 1001*time.Millisecond, 1)

	got, want := site.LocalRecords(), twin.LocalRecords()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("records = %+v, want one like %+v", got, want)
	}
	if got[0].User != "alice" || math.Float64bits(got[0].CoreSeconds) != math.Float64bits(want[0].CoreSeconds) {
		t.Errorf("report booked %s %.9f core-seconds, want alice %.9f", got[0].User, got[0].CoreSeconds, want[0].CoreSeconds)
	}
}
