package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/wire"
)

// treeSite is a site with n users under four groups, so that every vector
// has two elements, and with usage on every third user, so that the values
// are not round numbers.
func treeSite(tb testing.TB, n int) (*site, []string) {
	tb.Helper()
	var text strings.Builder
	for g := 0; g < 4; g++ {
		fmt.Fprintf(&text, "/vo%d %d\n", g, g+1)
	}
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user%06d", i)
		fmt.Fprintf(&text, "/vo%d/%s %d\n", i%4, users[i], 1+i%7)
	}
	pol, err := policy.ReadText(strings.NewReader(text.String()))
	if err != nil {
		tb.Fatal(err)
	}
	s := newPolicySite(tb, "s", simclock.NewSim(t0), pol)
	var jobs []uss.JobReport
	for i := 0; i < n; i += 3 {
		jobs = append(jobs, uss.JobReport{User: users[i], Start: t0, Duration: time.Duration(61+i) * time.Second, Procs: 1 + i%5})
	}
	s.uss.ReportJobBatch(jobs)
	s.clock.Advance(time.Hour)
	return s, users
}

// appendBatch is wire.AppendFairshareBatch for an answer known to be in order.
func appendBatch(tb testing.TB, users []string, resp wire.FairshareBatchResponse) []byte {
	tb.Helper()
	b, err := wire.AppendFairshareBatch(nil, users, resp)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestFairshareBatchMatchesInProcess: the batch lookup over HTTP answers what
// FCS.PriorityBatch answers in process, bit for bit and in request order, for
// a queue as a resource manager might send it — out of policy order, a user
// twice, names the policy does not know, an empty name — and its answer does
// not repeat the names it answers.
func TestFairshareBatchMatchesInProcess(t *testing.T) {
	s, users := treeSite(t, 600)
	queue := []string{"ghost"}
	for i := len(users) - 1; i >= 0; i -= 7 {
		queue = append(queue, users[i])
	}
	queue = append(queue, users[3], "", users[3], "user999999")

	want, err := s.fcs.PriorityBatch(queue)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(s.server.URL, "s").PriorityBatch(queue)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Entries) != len(queue)-3 || len(want.Entries[0].Vector) != 2 {
		t.Fatalf("fixture: %d entries with %d-element vectors, want %d with 2", len(want.Entries), len(want.Entries[0].Vector), len(queue)-3)
	}
	// Same bits per position: the canonical encodings of the two agree.
	if !bytes.Equal(appendBatch(t, queue, got), appendBatch(t, queue, want)) {
		t.Error("the answer over HTTP differs from the in-process answer")
	}
	if !got.ComputedAt.Equal(want.ComputedAt) || got.Projection != want.Projection {
		t.Errorf("batch header %q@%v, want %q@%v", got.Projection, got.ComputedAt, want.Projection, want.ComputedAt)
	}
	if !slices.Equal(got.Missing, want.Missing) || len(got.Entries) != len(want.Entries) {
		t.Fatalf("missing %q, %d entries; want %q, %d", got.Missing, len(got.Entries), want.Missing, len(want.Entries))
	}
	for i, e := range got.Entries {
		if e.User != want.Entries[i].User {
			t.Fatalf("entry %d is %q, want %q", i, e.User, want.Entries[i].User)
		}
	}

	resp, err := http.Post(s.server.URL+"/fairshare/batch", wire.UsersContentType,
		bytes.NewReader(wire.AppendUsers(nil, queue)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadBody(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); err != nil || resp.StatusCode != http.StatusOK || ct != wire.FairshareBatchContentType {
		t.Fatalf("POST /fairshare/batch = %d %q (%v)", resp.StatusCode, ct, err)
	}
	if bytes.Contains(body, []byte("user")) || bytes.Contains(body, []byte("ghost")) {
		t.Error("the answer repeats the names it answers")
	}
	if _, err := wire.DecodeFairshareBatch(body, queue); err != nil {
		t.Errorf("raw answer: %v", err)
	}
}

// TestFairshareBatchRefusesOtherRequests: the route takes one request body.
// JSON or no content type is 415 naming the one it takes, a body that does not
// decode is 400, and one past wire's cap is 413 — each a JSON error, like
// every other route's.
func TestFairshareBatchRefusesOtherRequests(t *testing.T) {
	s := newSite(t, "s", simclock.NewSim(t0), map[string]float64{"a": 1})
	good := wire.AppendUsers(nil, []string{"a", "b"})
	cases := []struct {
		name, ctype string
		body        []byte
		code        int
		cause       string
	}{
		{"JSON", "application/json", []byte(`{"users":["a"]}`), http.StatusUnsupportedMediaType, wire.UsersContentType},
		{"no content type", "", good, http.StatusUnsupportedMediaType, wire.UsersContentType},
		{"cut short", wire.UsersContentType, good[:len(good)-1], http.StatusBadRequest, "cut short"},
		{"trailing bytes", wire.UsersContentType, append(slices.Clone(good), 0), http.StatusBadRequest, "trailing"},
		{"over the cap", wire.UsersContentType, append([]byte{1}, make([]byte, 9<<20)...), http.StatusRequestEntityTooLarge, wire.ErrBodyTooLarge.Error()},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, s.server.URL+"/fairshare/batch", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.ctype != "" {
			req.Header.Set("Content-Type", tc.ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		err = wire.DecodeResponse(resp, nil)
		if resp.StatusCode != tc.code || err == nil || !strings.Contains(err.Error(), tc.cause) {
			t.Errorf("%s: %d (%v), want %d naming %q", tc.name, resp.StatusCode, err, tc.code, tc.cause)
		}
	}
}

// TestFairshareBatchClientRefusesBadAnswers: an answer in another content
// type (a site that still speaks JSON), or one that does not decode against
// the request, is an error that is not retried — asking again would get the
// same answer.
func TestFairshareBatchClientRefusesBadAnswers(t *testing.T) {
	queue := []string{"a", "b"}
	good := wire.FairshareBatchResponse{Projection: "percental", ComputedAt: t0,
		Entries: []wire.FairshareResponse{{User: "a", Value: 0.5}, {User: "b", Value: 0.25}}}
	one := good
	one.Entries = good.Entries[:1]
	cases := []struct {
		name, ctype string
		body        []byte
		cause       string
	}{
		{"JSON answer", "application/json", []byte(`{"entries":[],"projection":"percental"}`), `content type "application/json"`},
		{"about other users", wire.FairshareBatchContentType, appendBatch(t, queue[:1], one), "1 users, 2 were asked for"},
		{"cut short", wire.FairshareBatchContentType, appendBatch(t, queue, good)[:20], "cut short"},
	}
	for _, tc := range cases {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("Content-Type", tc.ctype)
			_, _ = w.Write(tc.body)
		}))
		_, err := NewClientWith(srv.URL, "s", ClientOptions{Retry: fastRetry(3)}).PriorityBatch(queue)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), tc.cause) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.cause)
		}
		if calls.Load() != 1 {
			t.Errorf("%s: asked %d times, want once (not retryable)", tc.name, calls.Load())
		}
	}
}

// BenchmarkFairshareBatch is a resource manager's cold re-prioritization
// pass over loopback HTTP: 2000 users of a 20k-user site per request, request
// encoding, serving and answer decoding included.
func BenchmarkFairshareBatch(b *testing.B) {
	s, users := treeSite(b, 20000)
	queue := make([]string, 0, 2000)
	for i := 0; i < len(users); i += 10 {
		queue = append(queue, users[i])
	}
	c := NewClient(s.server.URL, "s")
	if _, err := c.PriorityBatch(queue); err != nil { // the snapshot is built here
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.PriorityBatch(queue)
		if err != nil || len(resp.Entries) != len(queue) {
			b.Fatalf("%d entries, %v", len(resp.Entries), err)
		}
	}
}
