package libaequus

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/wire"
)

// fakeFCS serves fixed values and counts its round trips.
type fakeFCS struct {
	values    map[string]float64
	calls     int
	lastBatch []string
	batchErr  error
}

func (f *fakeFCS) PriorityBatch(users []string) (wire.FairshareBatchResponse, error) {
	f.calls++
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
	if fcs.calls != 1 {
		t.Errorf("FCS calls = %d, want one batch", fcs.calls)
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
	if fcs.calls != 1 {
		t.Errorf("FCS calls after batch fill = %d, want still 1", fcs.calls)
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
	if fcs.calls != 1 || len(fcs.lastBatch) != 1 || fcs.lastBatch[0] != "grid-c@s" {
		t.Errorf("batch request = %v (%d calls), want just grid-c@s", fcs.lastBatch, fcs.calls)
	}
}

func TestFairshareBatchAllCachedSkipsFetch(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	if _, err := c.FairshareBatch([]string{"grid-a@s", "grid-b@s"}); err != nil {
		t.Fatal(err)
	}
	fcs.calls = 0
	if _, err := c.FairshareBatch([]string{"grid-a@s", "grid-b@s"}); err != nil {
		t.Fatal(err)
	}
	if fcs.calls != 0 {
		t.Errorf("fully cached batch still fetched: %d calls", fcs.calls)
	}
}

// TestFairshareBatchWarmAllocatesItsAnswer pins an all-hit batch to the
// allocations of its answer map: the miss list and the queued set wait for a
// miss.
func TestFairshareBatchWarmAllocatesItsAnswer(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	users := make([]string, 200)
	for i := range users {
		users[i] = fmt.Sprintf("grid-%03d@s", i)
		fcs.values[users[i]] = float64(i)
	}
	if _, err := c.FairshareBatch(users); err != nil {
		t.Fatal(err)
	}
	var sink map[string]wire.FairshareResponse
	answer := testing.AllocsPerRun(20, func() {
		sink = make(map[string]wire.FairshareResponse, len(users))
		for _, u := range users {
			sink[u] = wire.FairshareResponse{User: u}
		}
	})
	warm := testing.AllocsPerRun(20, func() {
		sink, _ = c.FairshareBatch(users)
	})
	if fcs.calls != 1 || len(sink) != len(users) {
		t.Fatalf("warm batches made %d FCS calls and answered %d users, want 1 and %d", fcs.calls, len(sink), len(users))
	}
	if warm > answer {
		t.Errorf("a warm %d-user batch allocates %.0f objects, want at most its answer map's %.0f", len(users), warm, answer)
	}
}

func TestFairshareBatchErrorPropagates(t *testing.T) {
	c, fcs, _ := newBatchClient(simclock.NewSim(t0), time.Minute)
	fcs.batchErr = errors.New("fcs down")
	if _, err := c.FairshareBatch([]string{"grid-a@s"}); err == nil {
		t.Error("batch source failure swallowed")
	}
}
