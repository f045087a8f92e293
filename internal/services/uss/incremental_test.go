package uss

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/usage"
)

// countingPeer wraps a USS and counts how many records each RecordsSince
// call returns, to assert the exchange is actually incremental.
type countingPeer struct {
	inner   *Service
	fetched []int
}

func (c *countingPeer) Site() string { return c.inner.Site() }
func (c *countingPeer) RecordsSince(ctx context.Context, t time.Time) ([]usage.Record, error) {
	recs, err := c.inner.RecordsSince(ctx, t)
	c.fetched = append(c.fetched, len(recs))
	return recs, err
}

func TestExchangeIsIncremental(t *testing.T) {
	a := newUSS("a", true)
	clk := simclock.NewSim(t0)
	b := New(Config{Site: "b", BinWidth: time.Hour, Contribute: true, Clock: clk})
	peer := &countingPeer{inner: a}
	b.AddPeer(peer)

	// Fill 50 distinct hourly bins at site a, and let b's clock reach them:
	// a record ahead of the puller's clock does not move its watermark.
	for i := 0; i < 50; i++ {
		a.ReportJob("alice", t0.Add(time.Duration(i)*time.Hour), time.Minute, 1)
	}
	clk.Advance(50 * time.Hour)
	if _, err := b.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := peer.fetched[0]
	if first != 50 {
		t.Fatalf("first exchange fetched %d records, want 50", first)
	}

	// No new usage: the next exchange must fetch at most the open interval,
	// not the full history.
	if _, err := b.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := peer.fetched[1]
	if second > 2 {
		t.Errorf("second exchange fetched %d records, want <= 2 (incremental)", second)
	}

	// New usage in a fresh bin: only the delta transfers.
	a.ReportJob("alice", t0.Add(100*time.Hour), time.Minute, 1)
	clk.Advance(50 * time.Hour)
	if _, err := b.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	third := peer.fetched[2]
	if third > 3 {
		t.Errorf("third exchange fetched %d records, want small delta", third)
	}

	// Totals remain exact despite incremental transfer.
	want := 51 * 60.0
	got := b.GlobalTotals(t0.Add(200*time.Hour), usage.None{})["alice"]
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("global total = %g, want %g", got, want)
	}
}

// TestFutureDatedRecordDoesNotStallExchange: one report at the peer that
// completes a year ahead of the puller's clock is pulled and applied, but it
// does not move the watermark, so the peer's later usage still arrives.
func TestFutureDatedRecordDoesNotStallExchange(t *testing.T) {
	a := newUSS("a", true)
	b := newUSS("b", true)
	peer := &countingPeer{inner: b}
	a.AddPeer(peer)

	b.ReportJob("u1", t0.Add(365*24*time.Hour), time.Minute, 1)
	if _, err := a.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.ReportJob("u2", t0, 10*time.Minute, 1)
	for i := 0; i < 2; i++ {
		if _, err := a.Exchange(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got := a.GlobalTotals(t0.Add(400*24*time.Hour), usage.None{})
	if got["u1"] != 60 || got["u2"] != 600 {
		t.Errorf("a's totals = %v, want u1 60 and u2 600", got)
	}
	if wm := a.watermark["b"]; !wm.Equal(t0) {
		t.Errorf("watermark for b = %v, want %v (the newest record not ahead of the clock)", wm, t0)
	}
	// The future record is re-pulled every round, beside the open bin.
	if last := peer.fetched[len(peer.fetched)-1]; last != 2 {
		t.Errorf("third pull fetched %d records, want 2", last)
	}
}

func TestExchangeOpenBinGrowsWithoutDoubleCount(t *testing.T) {
	a := newUSS("a", true)
	b := newUSS("b", true)
	b.AddPeer(a)

	// Two completions land in the SAME hourly bin, with an exchange in
	// between: the second exchange must replace, not add.
	at := t0.Add(30 * time.Minute)
	a.ReportJob("alice", at, 10*time.Minute, 1)
	b.Exchange(context.Background())
	a.ReportJob("alice", at.Add(time.Minute), 10*time.Minute, 1)
	b.Exchange(context.Background())

	got := b.GlobalTotals(t0.Add(2*time.Hour), usage.None{})["alice"]
	if math.Abs(got-1200) > 1e-9 {
		t.Errorf("global total = %g, want 1200 (no double count)", got)
	}
}

func TestReportJobIgnoresInvalid(t *testing.T) {
	s := newUSS("a", true)
	s.ReportJob("", t0, time.Hour, 1)
	s.ReportJob("u", t0, 0, 1)
	s.ReportJob("u", t0, -time.Hour, 1)
	if got := s.LocalTotals(t0.Add(2*time.Hour), usage.None{}); len(got) != 0 {
		t.Errorf("invalid reports recorded: %v", got)
	}
	// Proc clamp.
	s.ReportJob("u", t0, time.Hour, 0)
	if got := s.LocalTotals(t0.Add(2*time.Hour), usage.None{})["u"]; got != 3600 {
		t.Errorf("clamped procs total = %g", got)
	}
}
