package uss

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
)

// okPeer serves a fixed set of records.
type okPeer struct {
	site string
	recs []usage.Record
}

func (p *okPeer) Site() string { return p.site }
func (p *okPeer) RecordsSince(_ context.Context, t time.Time) ([]usage.Record, error) {
	var out []usage.Record
	for _, r := range p.recs {
		if !r.IntervalStart.Before(t) {
			out = append(out, r)
		}
	}
	return out, nil
}

// errPeer fails every pull.
type errPeer struct {
	site  string
	calls int
	mu    sync.Mutex
}

func (p *errPeer) Site() string { return p.site }
func (p *errPeer) RecordsSince(context.Context, time.Time) ([]usage.Record, error) {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	return nil, errors.New("dial tcp: connection refused")
}

func (p *errPeer) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// hangPeer blocks until the pull's context ends — the hung-peer scenario.
type hangPeer struct{ site string }

func (p *hangPeer) Site() string { return p.site }
func (p *hangPeer) RecordsSince(ctx context.Context, _ time.Time) ([]usage.Record, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestExchangeMixedPeerOutcomes(t *testing.T) {
	// One healthy peer, one erroring, one hanging (bounded by PeerTimeout):
	// the round completes, the healthy data lands, errors are counted per
	// peer, and no peer blocks another.
	clock := simclock.NewSim(t0)
	reg := telemetry.NewRegistry()
	s := New(Config{
		Site:        "local",
		BinWidth:    time.Hour,
		Contribute:  true,
		Clock:       clock,
		Metrics:     reg,
		PeerTimeout: 100 * time.Millisecond,
	})
	s.AddPeer(&okPeer{site: "good", recs: []usage.Record{
		{Site: "good", User: "alice", IntervalStart: t0, CoreSeconds: 3600},
	}})
	s.AddPeer(&errPeer{site: "bad"})
	s.AddPeer(&hangPeer{site: "hung"})

	start := time.Now()
	n, err := s.Exchange(context.Background())
	elapsed := time.Since(start)

	if err == nil {
		t.Error("mixed round reported no error")
	}
	if n != 1 {
		t.Errorf("ingested %d records, want 1 from the healthy peer", n)
	}
	// The hung peer costs at most its own timeout — not 3x, because pulls
	// run concurrently; generous bound for loaded CI runners.
	if elapsed > 5*time.Second {
		t.Errorf("round took %v; hung peer blocked the round", elapsed)
	}
	global := s.GlobalTotals(t0.Add(2*time.Hour), usage.None{})
	if global["alice"] != 3600 {
		t.Errorf("alice global = %g, want 3600 (healthy peer blocked by failing ones?)", global["alice"])
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`aequus_uss_exchange_errors_total{peer="bad"} 1`,
		`aequus_uss_exchange_errors_total{peer="hung"} 1`,
		`aequus_uss_exchange_records_total{peer="good"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestExchangeBreakerSkipsDeadPeerThenRecovers(t *testing.T) {
	clock := simclock.NewSim(t0)
	reg := telemetry.NewRegistry()
	s := New(Config{
		Site:       "local",
		BinWidth:   time.Hour,
		Contribute: true,
		Clock:      clock,
		Metrics:    reg,
		Breaker: resilience.BreakerConfig{
			Threshold: 2,
			Cooldown:  30 * time.Minute,
		},
	})
	dead := &errPeer{site: "dead"}
	s.AddPeer(dead)

	// Two failures trip the breaker…
	for i := 0; i < 2; i++ {
		if _, err := s.Exchange(context.Background()); err == nil {
			t.Fatal("failing peer reported no error")
		}
		clock.Advance(time.Minute)
	}
	if got := dead.callCount(); got != 2 {
		t.Fatalf("peer dialed %d times, want 2", got)
	}
	// …after which the peer is not dialed: skipped, and not an error.
	if _, err := s.Exchange(context.Background()); err != nil {
		t.Errorf("breaker-open round errored: %v", err)
	}
	if got := dead.callCount(); got != 2 {
		t.Errorf("open breaker still dialed the peer (%d calls)", got)
	}

	st := s.PeerStatuses()
	if len(st) != 1 || st[0].Breaker != "open" || st[0].ConsecutiveFailures != 2 {
		t.Fatalf("PeerStatuses = %+v", st)
	}
	if st[0].LastError == "" || !st[0].LastSuccess.IsZero() {
		t.Errorf("status not reflecting a never-succeeded peer: %+v", st[0])
	}

	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	for _, want := range []string{
		`aequus_uss_exchange_skipped_total{peer="dead"} 1`,
		`aequus_peer_circuit_state{peer="dead"} 1`,
		`aequus_uss_peer_staleness_seconds{peer="dead"} -1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, buf.String())
		}
	}

	// Cooldown elapses and the peer comes back: half-open probe succeeds,
	// breaker closes, data flows again.
	clock.Advance(30 * time.Minute)
	s.mu.Lock()
	s.peers[0] = &okPeer{site: "dead", recs: []usage.Record{
		{Site: "dead", User: "bob", IntervalStart: t0, CoreSeconds: 1800},
	}}
	s.mu.Unlock()
	n, err := s.Exchange(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("recovery round = %d, %v", n, err)
	}
	st = s.PeerStatuses()
	if st[0].Breaker != "closed" || st[0].ConsecutiveFailures != 0 || st[0].LastError != "" {
		t.Errorf("recovered status = %+v", st[0])
	}
	if st[0].LastSuccess.IsZero() {
		t.Error("LastSuccess not recorded")
	}
}

// TestPullSpanRecordsBreakerAfterAllow: each uss.pull span records the
// breaker state the pull ran under. The pull that trips the breaker runs
// closed, the next one is skipped open, and after the cooldown the probe
// that really dials is recorded half-open.
func TestPullSpanRecordsBreakerAfterAllow(t *testing.T) {
	clock := simclock.NewSim(t0)
	rec := span.NewRecorder(span.Config{Capacity: 64, Clock: clock})
	s := New(Config{
		Site:       "local",
		BinWidth:   time.Hour,
		Contribute: true,
		Clock:      clock,
		Metrics:    telemetry.NewRegistry(),
		Spans:      rec,
		Breaker:    resilience.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	dead := &errPeer{site: "dead"}
	s.AddPeer(dead)

	_, _ = s.Exchange(context.Background()) // trips the breaker
	_, _ = s.Exchange(context.Background()) // skipped
	clock.Advance(time.Minute)
	_, _ = s.Exchange(context.Background()) // the half-open probe
	if got := dead.callCount(); got != 2 {
		t.Fatalf("peer dialed %d times, want 2 (the trip and the probe)", got)
	}

	var states []string
	for _, sp := range rec.Snapshot() {
		if sp.Name != "uss.pull" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "breaker" {
				states = append(states, a.Value)
			}
		}
	}
	want := []string{"closed", "open", "half-open"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("uss.pull breaker attributes = %v, want %v", states, want)
	}
}

func TestExchangeHonorsRoundDeadline(t *testing.T) {
	s := New(Config{Site: "local", BinWidth: time.Hour, Contribute: true})
	s.AddPeer(&hangPeer{site: "hung"})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Exchange(ctx)
	if err == nil {
		t.Error("hung peer under a round deadline reported no error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("round overran its deadline by %v", elapsed)
	}
}

func TestPeerStatusStalenessAges(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := New(Config{Site: "local", BinWidth: time.Hour, Contribute: true, Clock: clock,
		Metrics: telemetry.NewRegistry()})
	s.AddPeer(&okPeer{site: "peer"})
	if _, err := s.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(90 * time.Minute)
	st := s.PeerStatuses()
	if len(st) != 1 {
		t.Fatalf("statuses = %+v", st)
	}
	if got := clock.Now().Sub(st[0].LastSuccess); got != 90*time.Minute {
		t.Errorf("staleness = %v, want 90m", got)
	}
}
