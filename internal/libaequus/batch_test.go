package libaequus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/wire"
)

// fakeFCS serves fixed values, one user or a batch at a time.
type fakeFCS struct {
	values     map[string]float64
	calls      int
	batchCalls int
	lastBatch  []string
	batchErr   error
}

func (f *fakeFCS) Priority(user string) (wire.FairshareResponse, error) {
	f.calls++
	v, ok := f.values[user]
	if !ok {
		return wire.FairshareResponse{}, errors.New("unknown user")
	}
	return wire.FairshareResponse{User: user, Value: v, ComputedAt: t0}, nil
}

func (f *fakeFCS) PriorityBatch(users []string) (wire.FairshareBatchResponse, error) {
	f.batchCalls++
	f.lastBatch = append([]string(nil), users...)
	if f.batchErr != nil {
		return wire.FairshareBatchResponse{}, f.batchErr
	}
	resp := wire.FairshareBatchResponse{Projection: "percental", ComputedAt: t0}
	for _, u := range users {
		v, ok := f.values[u]
		if !ok {
			resp.Missing = append(resp.Missing, u)
			continue
		}
		resp.Entries = append(resp.Entries, wire.FairshareResponse{User: u, Value: v, ComputedAt: t0})
	}
	return resp, nil
}

func newBatchClient(clock simclock.Clock, ttl time.Duration) (*Client, *fakeFCS, *fakeIRS) {
	fcs := &fakeFCS{values: map[string]float64{
		"grid-a@s": 0.8, "grid-b@s": 0.5, "grid-c@s": 0.2,
	}}
	irs := &fakeIRS{}
	c := New(Config{Site: "s", CacheTTL: ttl, Clock: clock}, fcs, irs, nil)
	return c, fcs, irs
}

func TestFairshareBatchSingleRoundTrip(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	// Duplicates collapse and unknown users are simply absent.
	got, err := c.FairshareBatch([]string{"grid-a@s", "grid-b@s", "grid-a@s", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if fcs.batchCalls != 1 || fcs.calls != 0 {
		t.Errorf("calls = batch %d, single %d; want one batch, zero singles", fcs.batchCalls, fcs.calls)
	}
	if len(fcs.lastBatch) != 3 {
		t.Errorf("batch request = %v, want 3 deduped users", fcs.lastBatch)
	}
	if len(got) != 2 || got["grid-a@s"].Value != 0.8 || got["grid-b@s"].Value != 0.5 {
		t.Errorf("batch result = %v", got)
	}
	if _, ok := got["ghost"]; ok {
		t.Error("unknown user present in result")
	}
	// The batch filled the per-user cache: follow-up singles are all hits.
	if _, err := c.Fairshare("grid-a@s"); err != nil {
		t.Fatal(err)
	}
	if fcs.calls != 0 {
		t.Errorf("single call after batch fill = %d, want 0", fcs.calls)
	}
	if st := c.Stats(); st.FairshareHits != 1 || st.FairshareMisses != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFairshareBatchServesCachedEntries(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	if _, err := c.Fairshare("grid-a@s"); err != nil {
		t.Fatal(err)
	}
	fcs.calls = 0
	got, err := c.FairshareBatch([]string{"grid-a@s", "grid-c@s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("result = %v", got)
	}
	// Only the miss goes over the wire.
	if fcs.batchCalls != 1 || len(fcs.lastBatch) != 1 || fcs.lastBatch[0] != "grid-c@s" {
		t.Errorf("batch request = %v (%d calls), want just grid-c@s", fcs.lastBatch, fcs.batchCalls)
	}
}

func TestFairshareBatchAllCachedSkipsFetch(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	if _, err := c.FairshareBatch([]string{"grid-a@s", "grid-b@s"}); err != nil {
		t.Fatal(err)
	}
	fcs.batchCalls = 0
	if _, err := c.FairshareBatch([]string{"grid-a@s", "grid-b@s"}); err != nil {
		t.Fatal(err)
	}
	if fcs.batchCalls != 0 || fcs.calls != 0 {
		t.Errorf("fully cached batch still fetched: batch %d, single %d", fcs.batchCalls, fcs.calls)
	}
}

func TestFairshareBatchErrorPropagates(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	fcs.batchErr = errors.New("fcs down")
	if _, err := c.FairshareBatch([]string{"grid-a@s"}); err == nil {
		t.Error("batch source failure swallowed")
	}
}

func TestPrioritiesForLocalUsers(t *testing.T) {
	c, fcs, irs := newBatchClient(simclock.NewSim(t0), time.Minute)
	got, err := c.PrioritiesForLocalUsers([]string{"a", "b", "c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a": 0.8, "b": 0.5, "c": 0.2}
	if len(got) != len(want) {
		t.Fatalf("priorities = %v, want %v", got, want)
	}
	for lu, v := range want {
		if got[lu] != v {
			t.Errorf("priority[%s] = %g, want %g", lu, got[lu], v)
		}
	}
	// One resolution per distinct local user, one fairshare round trip total.
	if irs.calls != 3 {
		t.Errorf("IRS calls = %d, want 3", irs.calls)
	}
	if fcs.batchCalls != 1 || fcs.calls != 0 {
		t.Errorf("FCS calls = batch %d, single %d; want one batch", fcs.batchCalls, fcs.calls)
	}
}

func TestPrioritiesForLocalUsersSkipsUnresolvable(t *testing.T) {
	clock := simclock.NewSim(t0)
	fcs := &fakeFCS{values: map[string]float64{"grid-a@s": 0.8}}
	irs := &fakeIRS{fail: true}
	c := New(Config{Site: "s", CacheTTL: time.Minute, Clock: clock}, fcs, irs, nil)
	got, err := c.PrioritiesForLocalUsers([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("unresolvable user produced priorities: %v", got)
	}
}
