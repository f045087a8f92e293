package uss

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/usage"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func newUSS(site string, contribute bool) *Service {
	return New(Config{
		Site:       site,
		BinWidth:   time.Hour,
		Contribute: contribute,
		Clock:      simclock.NewSim(t0),
	})
}

func TestReportJobAccumulatesLocal(t *testing.T) {
	s := newUSS("a", true)
	s.ReportJob("alice", t0, 30*time.Minute, 2)
	got := s.LocalTotals(t0.Add(time.Hour), usage.None{})
	if math.Abs(got["alice"]-3600) > 1e-9 {
		t.Errorf("alice local = %g, want 3600", got["alice"])
	}
}

func TestExchangePullsPeerRecords(t *testing.T) {
	a := newUSS("a", true)
	b := newUSS("b", true)
	a.ReportJob("alice", t0, time.Hour, 1)
	b.AddPeer(a)
	n, err := b.Exchange(context.Background())
	if err != nil || n == 0 {
		t.Fatalf("Exchange = %d, %v", n, err)
	}
	global := b.GlobalTotals(t0.Add(2*time.Hour), usage.None{})
	if math.Abs(global["alice"]-3600) > 1e-9 {
		t.Errorf("alice global at b = %g", global["alice"])
	}
	// Local view unaffected.
	if local := b.LocalTotals(t0.Add(2*time.Hour), usage.None{}); local["alice"] != 0 {
		t.Errorf("alice local at b = %g", local["alice"])
	}
}

// TestGlobalTotalsOnePassMatchesPerSite pins the one-pass local+remote
// accumulation (shared weight table, no intermediate per-site maps) to the
// compute-each-site-then-merge definition, with and without decay.
func TestGlobalTotalsOnePassMatchesPerSite(t *testing.T) {
	b := newUSS("b", true)
	for i, site := range []string{"a", "c", "d"} {
		peer := newUSS(site, true)
		peer.ReportJob("alice", t0.Add(time.Duration(i)*time.Hour), time.Hour, 1+i)
		peer.ReportJob("bob", t0.Add(time.Duration(2*i)*time.Hour), 30*time.Minute, 2)
		b.AddPeer(peer)
	}
	b.ReportJob("alice", t0, 2*time.Hour, 1)
	b.ReportJob("carol", t0.Add(time.Hour), time.Hour, 3)
	if _, err := b.Exchange(context.Background()); err != nil {
		t.Fatal(err)
	}
	now := t0.Add(8 * time.Hour)
	for _, d := range []usage.Decay{
		usage.None{},
		usage.ExponentialHalfLife{HalfLife: 6 * time.Hour},
	} {
		got := b.GlobalTotals(now, d)
		want := b.local.DecayedTotals(now, d)
		b.mu.Lock()
		for _, h := range b.remote {
			for u, v := range h.DecayedTotals(now, d) {
				want[u] += v
			}
		}
		b.mu.Unlock()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d users, want %d", d.Name(), len(got), len(want))
		}
		for u, w := range want {
			if math.Abs(got[u]-w) > 1e-9*math.Max(math.Abs(w), 1) {
				t.Errorf("%s: user %s = %g, want %g", d.Name(), u, got[u], w)
			}
		}
	}
}

func TestExchangeIdempotent(t *testing.T) {
	a := newUSS("a", true)
	b := newUSS("b", true)
	a.ReportJob("alice", t0, time.Hour, 1)
	b.AddPeer(a)
	b.Exchange(context.Background())
	b.Exchange(context.Background())
	b.Exchange(context.Background())
	global := b.GlobalTotals(t0.Add(2*time.Hour), usage.None{})
	if math.Abs(global["alice"]-3600) > 1e-9 {
		t.Errorf("repeated exchange double-counted: %g", global["alice"])
	}
	// New usage at the peer appears after the next exchange.
	a.ReportJob("alice", t0.Add(time.Hour), time.Hour, 1)
	b.Exchange(context.Background())
	global = b.GlobalTotals(t0.Add(3*time.Hour), usage.None{})
	if math.Abs(global["alice"]-7200) > 1e-9 {
		t.Errorf("after new usage = %g, want 7200", global["alice"])
	}
}

func TestNonContributingSiteServesNothing(t *testing.T) {
	// Partial participation: a site that "contributes data but only
	// considers local data" vs one that "only reads global usage data but
	// does not contribute".
	silent := newUSS("silent", false)
	silent.ReportJob("alice", t0, time.Hour, 1)
	recs, err := silent.RecordsSince(context.Background(), time.Time{})
	if err != nil || recs != nil {
		t.Errorf("non-contributing records = %v, %v", recs, err)
	}
	// Its own global view still includes its local usage.
	if got := silent.GlobalTotals(t0.Add(time.Hour), usage.None{}); got["alice"] == 0 {
		t.Error("local usage missing from own view")
	}
}

func TestReaderOnlySiteSeesOthers(t *testing.T) {
	contributor := newUSS("contrib", true)
	reader := newUSS("reader", false) // reads but does not contribute
	contributor.ReportJob("alice", t0, time.Hour, 1)
	reader.ReportJob("bob", t0, time.Hour, 1)
	reader.AddPeer(contributor)
	contributor.AddPeer(reader)

	reader.Exchange(context.Background())
	contributor.Exchange(context.Background())

	// Reader sees both.
	rg := reader.GlobalTotals(t0.Add(2*time.Hour), usage.None{})
	if rg["alice"] == 0 || rg["bob"] == 0 {
		t.Errorf("reader global = %v", rg)
	}
	// Contributor cannot see the reader's usage (reader serves nothing).
	cg := contributor.GlobalTotals(t0.Add(2*time.Hour), usage.None{})
	if cg["bob"] != 0 {
		t.Errorf("contributor sees non-contributed usage: %v", cg)
	}
}

type failingPeer struct{}

func (failingPeer) Site() string { return "down" }
func (failingPeer) RecordsSince(context.Context, time.Time) ([]usage.Record, error) {
	return nil, errors.New("connection refused")
}

func TestExchangeToleratesFailingPeer(t *testing.T) {
	a := newUSS("a", true)
	b := newUSS("b", true)
	a.ReportJob("alice", t0, time.Hour, 1)
	b.AddPeer(failingPeer{})
	b.AddPeer(a)
	n, err := b.Exchange(context.Background())
	if err == nil {
		t.Error("peer failure not reported")
	}
	if n == 0 {
		t.Error("healthy peer not exchanged despite failing peer")
	}
}

func TestDecayAppliedToTotals(t *testing.T) {
	s := newUSS("a", true)
	s.ReportJob("alice", t0, time.Hour, 1)
	d := usage.ExponentialHalfLife{HalfLife: time.Hour}
	now := t0.Add(10 * time.Hour)
	got := s.LocalTotals(now, d)
	if got["alice"] >= 3600*0.01 {
		t.Errorf("decayed total = %g, want heavily decayed", got["alice"])
	}
	if got["alice"] <= 0 {
		t.Errorf("decayed total = %g, want positive", got["alice"])
	}
}

func TestSiteName(t *testing.T) {
	if got := newUSS("hpc2n", true).Site(); got != "hpc2n" {
		t.Errorf("Site = %q", got)
	}
}
