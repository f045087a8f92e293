package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// flakyHandler fails the first failN requests with status failCode, then
// succeeds.
type flakyHandler struct {
	calls    int64
	failN    int64
	failCode int
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := atomic.AddInt64(&h.calls, 1)
	if n <= h.failN {
		wire.WriteError(w, h.failCode, "induced failure %d", n)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.ResolveResponse{GridID: "grid-alice"})
}

func metricsText(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func containsLine(text, line string) bool {
	for _, l := range strings.Split(text, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

func fastRetry(attempts int) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Rand:        func() float64 { return 0.5 }, // exact delays
	}
}

func TestClientRetriesTransientServerErrors(t *testing.T) {
	h := &flakyHandler{failN: 2, failCode: http.StatusInternalServerError}
	srv := httptest.NewServer(h)
	defer srv.Close()

	reg := telemetry.NewRegistry()
	c := NewClientWith(srv.URL, "peer-a", ClientOptions{
		Retry:   fastRetry(3),
		Metrics: reg,
	})
	got, err := c.Resolve("site", "alice")
	if err != nil || got != "grid-alice" {
		t.Fatalf("Resolve = %q, %v; want grid-alice after retries", got, err)
	}
	if n := atomic.LoadInt64(&h.calls); n != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", n)
	}
	text := metricsText(t, reg)
	for _, want := range []string{
		`aequus_retry_attempts_total{target="peer-a"} 2`,
		`aequus_client_requests_total{target="peer-a",outcome="error"} 2`,
		`aequus_client_requests_total{target="peer-a",outcome="ok"} 1`,
	} {
		if !containsLine(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	// 4xx means the request itself is wrong; repeating it is pointless.
	h := &flakyHandler{failN: 100, failCode: http.StatusNotFound}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := NewClientWith(srv.URL, "peer-a", ClientOptions{
		Retry:   fastRetry(5),
		Metrics: telemetry.NewRegistry(),
	})
	if _, err := c.Resolve("site", "nobody"); err == nil {
		t.Fatal("404 reported no error")
	}
	if n := atomic.LoadInt64(&h.calls); n != 1 {
		t.Errorf("server saw %d calls, want exactly 1 for a 404", n)
	}
}

func TestClientNeverRetriesUsageReports(t *testing.T) {
	// Usage reports accumulate server-side: retrying one after an ambiguous
	// failure risks double counting, so even with a retry policy the client
	// sends it at most once.
	h := &flakyHandler{failN: 100, failCode: http.StatusInternalServerError}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := NewClientWith(srv.URL, "peer-a", ClientOptions{
		Retry:   fastRetry(5),
		Metrics: telemetry.NewRegistry(),
	})
	if err := c.ReportJobBatch([]wire.UsageReport{{User: "alice", Start: time.Now(), DurationSeconds: 3600, Procs: 4}}); err == nil {
		t.Fatal("failing usage report returned no error")
	}
	if n := atomic.LoadInt64(&h.calls); n != 1 {
		t.Errorf("server saw %d usage POSTs, want exactly 1", n)
	}
}

func TestNewHTTPClientSetsTransportLimits(t *testing.T) {
	c := NewHTTPClient(0)
	if c.Timeout != DefaultRequestTimeout {
		t.Errorf("default timeout = %v, want %v", c.Timeout, DefaultRequestTimeout)
	}
	tr, ok := c.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", c.Transport)
	}
	if tr.MaxIdleConnsPerHost <= 0 || tr.TLSHandshakeTimeout <= 0 || tr.IdleConnTimeout <= 0 {
		t.Errorf("transport limits unset: %+v", tr)
	}
	if c2 := NewHTTPClient(3 * time.Second); c2.Timeout != 3*time.Second {
		t.Errorf("explicit timeout = %v, want 3s", c2.Timeout)
	}
}
