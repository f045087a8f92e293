package libaequus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

type fakeIRS struct {
	calls int
	fail  bool
}

func (f *fakeIRS) Resolve(site, local string) (string, error) {
	f.calls++
	if f.fail {
		return "", errors.New("irs down")
	}
	return "grid-" + local + "@" + site, nil
}

type fakeUSS struct {
	reports []string
}

func (f *fakeUSS) ReportJob(user string, start time.Time, dur time.Duration, procs int) {
	f.reports = append(f.reports, user)
}

func newClient(clock simclock.Clock, ttl time.Duration) (*Client, *fakeFCS, *fakeIRS, *fakeUSS) {
	fcs := &fakeFCS{values: map[string]float64{"grid-alice@hpc2n": 0.7}}
	irs := &fakeIRS{}
	uss := &fakeUSS{}
	c := New(Config{Site: "hpc2n", CacheTTL: ttl, Clock: clock}, fcs, irs, uss)
	return c, fcs, irs, uss
}

func TestPriorityForLocalUser(t *testing.T) {
	c, _, _, _ := newClient(simclock.NewSim(t0), time.Minute)
	v, err := c.PriorityForLocalUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.7 {
		t.Errorf("priority = %g", v)
	}
}

func TestCachingReducesServiceTraffic(t *testing.T) {
	clock := simclock.NewSim(t0)
	c, fcs, irs, _ := newClient(clock, time.Minute)
	// A batch of 100 priority queries for the same user — the scenario the
	// paper's cache is designed for.
	for i := 0; i < 100; i++ {
		if _, err := c.PriorityForLocalUser("alice"); err != nil {
			t.Fatal(err)
		}
	}
	if fcs.calls != 1 || irs.calls != 1 {
		t.Errorf("service calls = FCS %d, IRS %d; want 1 each", fcs.calls, irs.calls)
	}
	st := c.Stats()
	if st.FairshareHits != 99 || st.FairshareMisses != 1 {
		t.Errorf("fairshare stats = %+v", st)
	}
	// TTL expiry triggers a refresh.
	clock.Advance(2 * time.Minute)
	c.PriorityForLocalUser("alice")
	if fcs.calls != 2 || irs.calls != 2 {
		t.Errorf("post-expiry calls = FCS %d, IRS %d", fcs.calls, irs.calls)
	}
}

func TestJobCompleteReportsGridIdentity(t *testing.T) {
	c, _, _, uss := newClient(simclock.NewSim(t0), time.Minute)
	if err := c.JobComplete("alice", t0, time.Hour, 2); err != nil {
		t.Fatal(err)
	}
	if len(uss.reports) != 1 || uss.reports[0] != "grid-alice@hpc2n" {
		t.Errorf("reports = %v", uss.reports)
	}
	if c.Stats().UsageReports != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestIRSFailurePropagates(t *testing.T) {
	clock := simclock.NewSim(t0)
	fcs := &fakeFCS{values: map[string]float64{}}
	irs := &fakeIRS{fail: true}
	c := New(Config{Site: "s", CacheTTL: time.Minute, Clock: clock}, fcs, irs, nil)
	if _, err := c.PriorityForLocalUser("alice"); err == nil {
		t.Error("IRS failure swallowed")
	}
	if err := c.JobComplete("alice", t0, time.Hour, 1); err == nil {
		t.Error("IRS failure swallowed on completion")
	}
}

func TestUnknownUserError(t *testing.T) {
	c, _, _, _ := newClient(simclock.NewSim(t0), time.Minute)
	if _, err := c.PriorityForLocalUser("mallory"); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestFlushCaches(t *testing.T) {
	c, fcs, _, _ := newClient(simclock.NewSim(t0), time.Hour)
	c.PriorityForLocalUser("alice")
	c.FlushCaches()
	c.PriorityForLocalUser("alice")
	if fcs.calls != 2 {
		t.Errorf("FCS calls after flush = %d, want 2", fcs.calls)
	}
}

func TestNilUsageSinkTolerated(t *testing.T) {
	clock := simclock.NewSim(t0)
	fcs := &fakeFCS{values: map[string]float64{}}
	irs := &fakeIRS{}
	c := New(Config{Site: "s", CacheTTL: time.Minute, Clock: clock}, fcs, irs, nil)
	if err := c.JobComplete("alice", t0, time.Hour, 1); err != nil {
		t.Errorf("nil sink err = %v", err)
	}
}

func TestZeroTTLDisablesCaching(t *testing.T) {
	clock := simclock.NewSim(t0)
	c, fcs, _, _ := newClient(clock, 0)
	c.PriorityForLocalUser("alice")
	c.PriorityForLocalUser("alice")
	if fcs.calls != 2 {
		t.Errorf("FCS calls with zero TTL = %d, want 2", fcs.calls)
	}
}
