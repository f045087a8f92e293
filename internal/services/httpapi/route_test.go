package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/wire"
)

// routeTraffic is a fixed mix of requests with fixed answers: lookups, a
// 404 and a 400, and the 405s of a one-method route and of both two-method
// routes.
var routeTraffic = []struct {
	method, target, body string
	code                 int
}{
	{"GET", "/fairshare", "", 200},
	{"GET", "/fairshare", "", 200},
	{"GET", "/fairshare", "", 200},
	{"GET", "/fairshare?user=ghost", "", 404},
	{"POST", "/fairshare", "", 405},
	{"GET", "/policy", "", 200},
	{"DELETE", "/policy", "", 405},
	{"PUT", "/identity/resolve", "", 405},
	{"POST", "/identity/resolve", `{"site":"s","localUser":"x"}`, 404},
	{"POST", "/usage/batch", `{bad`, 400},
	{"GET", "/usage/records", "", 200},
}

// serveTraffic sends routeTraffic to h and checks each answer's code.
func serveTraffic(t *testing.T, h http.Handler) {
	t.Helper()
	for _, req := range routeTraffic {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(req.method, req.target, strings.NewReader(req.body)))
		if rec.Code != req.code {
			t.Errorf("%s %s = %d, want %d", req.method, req.target, rec.Code, req.code)
		}
	}
}

// httpSeries is reg's exposition of the aequus_http_ families, HELP and TYPE
// lines included, without the latency histograms' buckets and sums, which
// depend on timing.
func httpSeries(t *testing.T, reg *telemetry.Registry) []string {
	t.Helper()
	var out []string
	for _, l := range strings.Split(metricsText(t, reg), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(l, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "aequus_http_") ||
			strings.HasPrefix(name, "aequus_http_request_duration_seconds_bucket") ||
			strings.HasPrefix(name, "aequus_http_request_duration_seconds_sum") {
			continue
		}
		out = append(out, l)
	}
	return out
}

// TestHTTPSeriesMatchEarlierServer: after routeTraffic, the HTTP families
// read as they did at 5bf09c0 (testdata/http_series_5bf09c0.txt, the same
// traffic through that commit's telemetry.HTTPMetrics middleware) but for
// two differences. The errors family is gone: it was requests_total summed
// over 4xx and 5xx codes. And every route's in-flight gauge and latency
// count exist, at zero, before the route is first served.
func TestHTTPSeriesMatchEarlierServer(t *testing.T) {
	reg := telemetry.NewRegistry()
	serveTraffic(t, inProcessServer(t, ServerOptions{Registry: reg}))
	got := httpSeries(t, reg)

	if !slices.Contains(got, `aequus_http_in_flight_requests{route="/usage/tree"} 0`) ||
		!slices.Contains(got, `aequus_http_request_duration_seconds_count{route="/usage/tree"} 0`) {
		t.Errorf("no zero-valued series for the unserved /usage/tree:\n%s", strings.Join(got, "\n"))
	}
	served := map[string]bool{}
	for _, req := range routeTraffic {
		served[strings.SplitN(req.target, "?", 2)[0]] = true
	}
	got = slices.DeleteFunc(got, func(l string) bool {
		_, rest, ok := strings.Cut(l, `{route="`)
		route, _, _ := strings.Cut(rest, `"`)
		return ok && !served[route] && strings.HasSuffix(l, "} 0")
	})

	before, err := os.ReadFile("testdata/http_series_5bf09c0.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.DeleteFunc(strings.Split(strings.TrimSpace(string(before)), "\n"), func(l string) bool {
		return strings.Contains(l, "aequus_http_request_errors_total")
	})
	if !slices.Equal(got, want) {
		t.Errorf("HTTP series after the same traffic:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRouteRequestID: a route takes an incoming request ID or makes one,
// echoes it and traces under it.
func TestRouteRequestID(t *testing.T) {
	spans := span.NewRecorder(span.Config{Capacity: 16})
	srv := inProcessServer(t, ServerOptions{Registry: telemetry.NewRegistry(), Spans: spans})
	for _, incoming := range []string{"incoming-id", ""} {
		req := httptest.NewRequest("GET", "/fairshare", nil)
		if incoming != "" {
			req.Header.Set(span.RequestIDHeader, incoming)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		id := rec.Header().Get(span.RequestIDHeader)
		if incoming != "" && id != incoming || incoming == "" && len(id) != 16 {
			t.Errorf("incoming ID %q answered under %q", incoming, id)
		}
		sp := findSpan(spans, func(sp *span.Span) bool { return sp.Name == "http.server" && sp.TraceID == id })
		if sp == nil || spanAttr(sp, "route") != "/fairshare" || spanAttr(sp, "method") != "GET" {
			t.Errorf("no http.server span for /fairshare under trace %q: %v", id, spans.Snapshot())
		}
	}
}

// TestRouteAccessLog: at debug level a route writes one access-log record
// per request, carrying its route, method, code and request ID; at info
// level it writes none.
func TestRouteAccessLog(t *testing.T) {
	for _, level := range []string{"debug", "info"} {
		var logs syncBuffer
		logger, err := telemetry.NewLogger(&logs, "json", level)
		if err != nil {
			t.Fatal(err)
		}
		srv := inProcessServer(t, ServerOptions{Registry: telemetry.NewRegistry(), Log: logger})
		req := httptest.NewRequest("GET", "/fairshare", nil)
		req.Header.Set(span.RequestIDHeader, "log-me")
		srv.ServeHTTP(httptest.NewRecorder(), req)

		var access []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			if line == "" {
				continue
			}
			var entry map[string]any
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatalf("log record is not JSON: %v (%s)", err, logs.String())
			}
			if entry["msg"] == "http request" {
				access = append(access, entry)
			}
		}
		if level == "info" {
			if len(access) != 0 {
				t.Errorf("access log at info level: %v", access)
			}
			continue
		}
		if len(access) != 1 {
			t.Fatalf("%d access log records at debug level, want 1: %s", len(access), logs.String())
		}
		if entry := access[0]; entry["route"] != "/fairshare" || entry["method"] != "GET" ||
			entry["code"] != float64(200) || entry["request_id"] != "log-me" {
			t.Errorf("access log record = %v, want /fairshare GET 200 under log-me", entry)
		}
	}
}

// TestRouteRecordsMetrics: a route counts every answer by code, a 405
// included, observes its latency, leaves its in-flight gauge at zero, and
// traces a refused method like any other request.
func TestRouteRecordsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := span.NewRecorder(span.Config{Capacity: 64})
	serveTraffic(t, inProcessServer(t, ServerOptions{Registry: reg, Spans: spans}))
	text := metricsText(t, reg)
	for _, want := range []string{
		`aequus_http_requests_total{route="/fairshare",code="200"} 3`,
		`aequus_http_requests_total{route="/fairshare",code="404"} 1`,
		`aequus_http_requests_total{route="/fairshare",code="405"} 1`,
		`aequus_http_requests_total{route="/policy",code="405"} 1`,
		`aequus_http_requests_total{route="/identity/resolve",code="405"} 1`,
		`aequus_http_request_duration_seconds_count{route="/fairshare"} 5`,
		`aequus_http_in_flight_requests{route="/fairshare"} 0`,
	} {
		if !containsLine(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	for _, method := range []string{"DELETE", "PUT"} {
		if findSpan(spans, func(sp *span.Span) bool {
			return sp.Name == "http.server" && spanAttr(sp, "method") == method
		}) == nil {
			t.Errorf("the refused %s has no http.server span", method)
		}
	}
}

// TestRouteInFlightGauge: a route's in-flight gauge counts the request it
// is serving, here an exchange held up by its peer.
func TestRouteInFlightGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newObservedSite(t, "s", simclock.NewSim(t0), map[string]float64{"a": 1}, ServerOptions{Registry: reg})
	entered, release := make(chan struct{}), make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		wire.WriteError(w, http.StatusServiceUnavailable, "peer away")
	}))
	defer peer.Close()
	s.uss.AddPeer(NewClient(peer.URL, "peer"))
	inflight := reg.GaugeVec("aequus_http_in_flight_requests", "", "route").With("/usage/exchange")

	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		s.server.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/usage/exchange", nil))
		done <- rec.Code
	}()
	<-entered
	if v := inflight.Value(); v != 1 {
		t.Errorf("in flight during the exchange = %g, want 1", v)
	}
	close(release)
	if code := <-done; code != http.StatusBadGateway {
		t.Errorf("exchange with a failing peer = %d, want 502", code)
	}
	if v := inflight.Value(); v != 0 {
		t.Errorf("in flight after the exchange = %g, want 0", v)
	}
}
