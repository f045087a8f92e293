package faultinject

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/simclock"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func TestWindowsFollowTheClock(t *testing.T) {
	clock := simclock.NewSim(t0)
	in := New(clock, 1, Window{
		From:  t0.Add(time.Hour),
		Until: t0.Add(2 * time.Hour),
		Kind:  Error,
	})
	if f := in.Decide(); f.Kind != None {
		t.Fatalf("fault before window: %+v", f)
	}
	clock.Advance(time.Hour)
	if f := in.Decide(); f.Kind != Error || f.Err == nil {
		t.Fatalf("no fault inside window: %+v", f)
	}
	clock.Advance(time.Hour)
	if f := in.Decide(); f.Kind != None {
		t.Fatalf("fault after window: %+v", f)
	}
	if got := in.Counts()[Error]; got != 1 {
		t.Errorf("error count = %d, want 1", got)
	}
}

func TestFlapIsDeterministicAndRoughlyRated(t *testing.T) {
	decide := func() []bool {
		in := New(simclock.NewSim(t0), 42, Window{Kind: Flap, Rate: 0.3})
		out := make([]bool, 1000)
		for i := range out {
			out[i] = in.Decide().Kind != None
		}
		return out
	}
	a, b := decide(), decide()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different flap sequences")
		}
		if a[i] {
			fired++
		}
	}
	if fired < 200 || fired > 400 {
		t.Errorf("30%% flap fired %d/1000 times", fired)
	}
}

func TestResetLooksLikeAConnectionReset(t *testing.T) {
	in := New(simclock.NewSim(t0), 1, Window{Kind: Reset})
	f := in.Decide()
	var op *net.OpError
	if !errors.As(f.Err, &op) {
		t.Fatalf("reset fault error = %v, want *net.OpError", f.Err)
	}
}

func TestFaultErrSimSemantics(t *testing.T) {
	if err := (Fault{Kind: None}).Resolve(context.Background()); err != nil {
		t.Errorf("None.Err = %v", err)
	}
	if err := (Fault{Kind: Timeout}).Resolve(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Timeout.Err = %v", err)
	}
	// Latency under the remaining budget passes; over it, times out.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := (Fault{Kind: Latency, Latency: time.Second}).Resolve(ctx); err != nil {
		t.Errorf("short latency = %v", err)
	}
	if err := (Fault{Kind: Latency, Latency: 2 * time.Hour}).Resolve(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("long latency = %v", err)
	}
}

func TestSetWindowsClearsFaults(t *testing.T) {
	in := New(simclock.NewSim(t0), 1, Window{Kind: Error})
	if in.Decide().Kind != Error {
		t.Fatal("window not active")
	}
	in.SetWindows()
	if f := in.Decide(); f.Kind != None {
		t.Fatalf("faults survived SetWindows(): %+v", f)
	}
}

// countingBase is a real transport that counts what reaches it.
type countingBase struct {
	*http.Transport
	trips, closes int
}

func (b *countingBase) RoundTrip(req *http.Request) (*http.Response, error) {
	b.trips++
	return b.Transport.RoundTrip(req)
}

func (b *countingBase) CloseIdleConnections() {
	b.closes++
	b.Transport.CloseIdleConnections()
}

func TestRoundTripperInjectsAndForwards(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := New(nil, 1, Window{Kind: Error})
	base := &countingBase{Transport: &http.Transport{}}
	c := &http.Client{Transport: &RoundTripper{Base: base, Injector: in}}
	if _, err := c.Get(srv.URL); err == nil {
		t.Fatal("injected error did not surface")
	}
	if base.trips != 0 {
		t.Errorf("an injected error reached the base transport %d times", base.trips)
	}

	// Clear the fault: requests pass through to the real server.
	in.SetWindows()
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" || base.trips != 1 {
		t.Errorf("body = %q after %d base round trips, want \"ok\" after 1", body, base.trips)
	}

	// A wrapped client must still drain its keep-alive connections (and
	// their per-connection goroutines): CloseIdleConnections reaches Base.
	c.CloseIdleConnections()
	if base.closes != 1 {
		t.Errorf("CloseIdleConnections reached the base %d times, want 1", base.closes)
	}
}

func TestRoundTripperTimeoutHonorsContext(t *testing.T) {
	in := New(nil, 1, Window{Kind: Timeout})
	c := &http.Client{Transport: &RoundTripper{Injector: in}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://injected.invalid/", nil)
	start := time.Now()
	_, err := c.Do(req)
	if err == nil {
		t.Fatal("timeout fault succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout fault hung %v past the context deadline", elapsed)
	}
}

func TestRoundTripperLatencyDelays(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	in := New(nil, 1, Window{Kind: Latency, Latency: 30 * time.Millisecond})
	c := &http.Client{Transport: &RoundTripper{Injector: in}}
	start := time.Now()
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("latency fault took only %v", elapsed)
	}
}
