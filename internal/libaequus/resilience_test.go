package libaequus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// downableFCS serves fixed values until taken down.
type downableFCS struct {
	values map[string]float64
	down   bool
	calls  int
}

func (f *downableFCS) PriorityBatch(users []string) (wire.FairshareBatchResponse, error) {
	f.calls++
	if f.down {
		return wire.FairshareBatchResponse{}, errors.New("fcs unreachable")
	}
	resp := wire.FairshareBatchResponse{ComputedAt: t0}
	for _, u := range users {
		if v, ok := f.values[u]; ok {
			resp.Entries = append(resp.Entries, wire.FairshareResponse{User: u, Value: v, ComputedAt: t0})
		} else {
			resp.Missing = append(resp.Missing, u)
		}
	}
	return resp, nil
}

// flakyIRS fails the first failN resolutions, then succeeds.
type flakyIRS struct{ calls, failN int }

func (f *flakyIRS) Resolve(site, local string) (string, error) {
	f.calls++
	if f.calls <= f.failN {
		return "", errors.New("irs transient failure")
	}
	return "grid-" + local + "@" + site, nil
}

func immediateRetry(attempts int) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Nanosecond,
		Rand:        func() float64 { return 0.5 }, // exact delays
	}
}

func TestLibRetriesTransientSourceFailures(t *testing.T) {
	irs := &flakyIRS{failN: 2}
	c := New(Config{
		Site:     "hpc2n",
		CacheTTL: time.Minute,
		Clock:    simclock.NewSim(t0),
		Metrics:  telemetry.NewRegistry(),
		Retry:    immediateRetry(3),
	}, &downableFCS{values: map[string]float64{"grid-alice@hpc2n": 0.7}}, irs, nil)

	v, err := c.PriorityForLocalUser("alice")
	if err != nil || v != 0.7 {
		t.Fatalf("PriorityForLocalUser = %g, %v; want 0.7 after retries", v, err)
	}
	if irs.calls != 3 {
		t.Errorf("IRS saw %d calls, want 3 (2 transient failures + success)", irs.calls)
	}
}

func TestLibStaleFallbackServesExpiredEntries(t *testing.T) {
	clock := simclock.NewSim(t0)
	fcs := &downableFCS{values: map[string]float64{"grid-alice@hpc2n": 0.7}}
	c := New(Config{
		Site:         "hpc2n",
		CacheTTL:     time.Minute,
		Clock:        clock,
		Metrics:      telemetry.NewRegistry(),
		Retry:        immediateRetry(3),
		StaleIfError: true,
	}, fcs, &flakyIRS{}, nil)

	if _, err := c.PriorityForLocalUser("alice"); err != nil {
		t.Fatal(err)
	}

	// TTL expires, then the FCS goes down: the expired entry keeps serving.
	clock.Advance(2 * time.Minute)
	fcs.down = true
	v, err := c.PriorityForLocalUser("alice")
	if err != nil || v != 0.7 {
		t.Fatalf("stale fallback = %g, %v; want 0.7, nil", v, err)
	}
	st := c.Stats()
	if st.FairshareStale != 1 {
		t.Errorf("FairshareStale = %d, want 1", st.FairshareStale)
	}

	// A user never cached still fails: there is nothing stale to serve.
	if _, err := c.Fairshare("grid-bob@hpc2n"); err == nil {
		t.Error("uncached user served during outage")
	}

	// Recovery: fresh values replace stale ones.
	fcs.down = false
	clock.Advance(2 * time.Minute)
	if v, err := c.PriorityForLocalUser("alice"); err != nil || v != 0.7 {
		t.Fatalf("post-recovery = %g, %v", v, err)
	}
	if got := c.Stats().FairshareStale; got != 1 {
		t.Errorf("FairshareStale after recovery = %d, want still 1", got)
	}

	// A user the policy drops is unknown, not stale: each lookup is one
	// answered round trip, not retried, and their last value is not served.
	delete(fcs.values, "grid-alice@hpc2n")
	for i := 1; i <= 3; i++ {
		clock.Advance(time.Hour)
		calls := fcs.calls
		if v, err := c.Fairshare("grid-alice@hpc2n"); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("lookup %d of a dropped user = %g, %v; want ErrUnknownUser", i, v.Value, err)
		}
		if got := fcs.calls - calls; got != 1 {
			t.Errorf("lookup %d of a dropped user made %d source calls, want 1", i, got)
		}
	}
	if got := c.Stats().FairshareStale; got != 1 {
		t.Errorf("FairshareStale after the drop = %d, want still 1", got)
	}
}

func TestLibStaleFallbackDisabledByDefault(t *testing.T) {
	clock := simclock.NewSim(t0)
	fcs := &downableFCS{values: map[string]float64{"grid-alice@hpc2n": 0.7}}
	c := New(Config{
		Site:     "hpc2n",
		CacheTTL: time.Minute,
		Clock:    clock,
		Metrics:  telemetry.NewRegistry(),
	}, fcs, &flakyIRS{}, nil)
	if _, err := c.PriorityForLocalUser("alice"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	fcs.down = true
	if _, err := c.PriorityForLocalUser("alice"); err == nil {
		t.Error("expired entry served without StaleIfError")
	}
}

func TestLibStaleFallbackBatch(t *testing.T) {
	clock := simclock.NewSim(t0)
	fcs := &downableFCS{values: map[string]float64{"a": 0.6, "b": 0.4}}
	c := New(Config{
		Site:         "hpc2n",
		CacheTTL:     time.Minute,
		Clock:        clock,
		Metrics:      telemetry.NewRegistry(),
		StaleIfError: true,
	}, fcs, &flakyIRS{}, nil)

	if _, err := c.FairshareBatch([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	fcs.down = true

	// Both users have stale entries: the batch succeeds on them.
	got, err := c.FairshareBatch([]string{"a", "b"})
	if err != nil {
		t.Fatalf("stale batch: %v", err)
	}
	if got["a"].Value != 0.6 || got["b"].Value != 0.4 {
		t.Errorf("stale batch = %+v", got)
	}
	if st := c.Stats(); st.FairshareStale != 2 {
		t.Errorf("FairshareStale = %d, want 2", st.FairshareStale)
	}

	// A batch including a never-cached user fails whole: the caller must
	// not mistake the gap for "unknown to the policy".
	if _, err := c.FairshareBatch([]string{"a", "nobody"}); err == nil {
		t.Error("partially answerable batch did not fail")
	}
}
