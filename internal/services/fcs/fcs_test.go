package fcs

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/vector"
	"repro/internal/wire"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

type staticPDS struct{ tree *policy.Tree }

func (s staticPDS) Policy() *policy.Tree { return s.tree.Clone() }

// staticUMS is a concurrency-safe usage source that answers every pull with
// a Full set of its totals: asynchronous snapshot refreshes consult it from
// background goroutines.
type staticUMS struct {
	mu     sync.Mutex
	totals map[string]float64
	err    error
	calls  int
	// block, when non-nil, is closed by the test to release an in-flight
	// UsageDeltas call (for single-flight tests).
	block chan struct{}
}

func (s *staticUMS) UsageDeltas(uint64) (usage.DeltaSet, error) {
	s.mu.Lock()
	s.calls++
	version := uint64(s.calls)
	err := s.err
	block := s.block
	cp := map[string]float64{}
	for k, v := range s.totals {
		cp[k] = v
	}
	s.mu.Unlock()
	if block != nil {
		<-block
	}
	if err != nil {
		return usage.DeltaSet{}, err
	}
	return usage.DeltaSet{Version: version, Full: true, Totals: cp, Scale: 1, Users: len(cp)}, nil
}

func (s *staticUMS) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *staticUMS) SetErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.err = err
}

func (s *staticUMS) SetTotals(t map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.totals = t
}

// newFCS builds a service in SynchronousRefresh mode — the deterministic
// semantics the pre-snapshot tests were written against.
func newFCS(t *testing.T, shares, totals map[string]float64, clock simclock.Clock, ttl time.Duration) (*Service, *staticUMS) {
	t.Helper()
	p, err := policy.FromShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	ums := &staticUMS{totals: totals}
	svc := New(Config{Clock: clock, CacheTTL: ttl, SynchronousRefresh: true,
		Metrics: telemetry.NewRegistry()}, staticPDS{p}, ums)
	return svc, ums
}

// waitFor polls cond for up to two seconds of real time.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

func TestPriorityReflectsBalance(t *testing.T) {
	clock := simclock.NewSim(t0)
	svc, _ := newFCS(t,
		map[string]float64{"under": 0.5, "over": 0.5},
		map[string]float64{"under": 10, "over": 90},
		clock, time.Minute)
	u, err := svc.Priority("under")
	if err != nil {
		t.Fatal(err)
	}
	o, err := svc.Priority("over")
	if err != nil {
		t.Fatal(err)
	}
	if u.Value <= o.Value {
		t.Errorf("under=%g should beat over=%g", u.Value, o.Value)
	}
	if u.Value < 0 || u.Value > 1 {
		t.Errorf("value out of range: %g", u.Value)
	}
	if len(u.Vector) != 1 {
		t.Errorf("vector = %v", u.Vector)
	}
	if u.Priority <= 0 {
		t.Errorf("raw priority = %g", u.Priority)
	}
}

func TestUnknownUser(t *testing.T) {
	svc, _ := newFCS(t, map[string]float64{"a": 1}, nil, simclock.NewSim(t0), time.Minute)
	if _, err := svc.Priority("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("err = %v", err)
	}
}

func TestPreCalculationCaching(t *testing.T) {
	clock := simclock.NewSim(t0)
	svc, ums := newFCS(t, map[string]float64{"a": 0.5, "b": 0.5},
		map[string]float64{"a": 1, "b": 1}, clock, time.Minute)
	svc.Priority("a")
	svc.Priority("b")
	svc.Priority("a")
	if ums.Calls() != 1 {
		t.Errorf("UMS consulted %d times within TTL, want 1 (pre-calculated)", ums.Calls())
	}
	clock.Advance(2 * time.Minute)
	svc.Priority("a")
	if ums.Calls() != 2 {
		t.Errorf("UMS consulted %d times after expiry", ums.Calls())
	}
}

func TestRefreshPicksUpUsageChanges(t *testing.T) {
	clock := simclock.NewSim(t0)
	svc, ums := newFCS(t, map[string]float64{"a": 0.5, "b": 0.5},
		map[string]float64{"a": 0, "b": 100}, clock, time.Hour)
	before, _ := svc.Priority("a")
	ums.SetTotals(map[string]float64{"a": 100, "b": 0})
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, _ := svc.Priority("a")
	if !(after.Value < before.Value) {
		t.Errorf("priority did not drop after usage: %g -> %g", before.Value, after.Value)
	}
}

func TestTableListsAllUsers(t *testing.T) {
	svc, _ := newFCS(t, map[string]float64{"a": 0.6, "b": 0.4},
		map[string]float64{"a": 5, "b": 5}, simclock.NewSim(t0), time.Minute)
	tab, err := svc.Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != 2 {
		t.Fatalf("entries = %d", len(tab.Entries))
	}
	if tab.Projection != "percental" {
		t.Errorf("default projection = %q", tab.Projection)
	}
	seen := map[string]wire.FairshareResponse{}
	for _, e := range tab.Entries {
		seen[e.User] = e
	}
	if seen["a"].Value <= seen["b"].Value {
		t.Errorf("a (share .6, half usage) should beat b: %v", seen)
	}
}

func TestSetProjectionRuntimeSwitch(t *testing.T) {
	svc, ums := newFCS(t, map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2},
		map[string]float64{"a": 10, "b": 30, "c": 60}, simclock.NewSim(t0), time.Hour)
	tab1, _ := svc.Table()
	calls := ums.Calls()
	svc.SetProjection(vector.Dictionary{})
	tab2, err := svc.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Projection != "dictionary" {
		t.Errorf("projection after switch = %q", tab2.Projection)
	}
	// Dictionary gives evenly spaced ranks; percental does not in general.
	if tab1.Projection == tab2.Projection {
		t.Error("projection did not change")
	}
	// A projection switch re-projects the existing tree: no UMS round trip.
	if ums.Calls() != calls {
		t.Errorf("projection switch consulted the UMS (%d -> %d calls)", calls, ums.Calls())
	}
	vals := map[string]float64{}
	for _, e := range tab2.Entries {
		vals[e.User] = e.Value
	}
	if math.Abs(vals["a"]-0.75) > 1e-12 {
		t.Errorf("dictionary top value = %g, want 0.75", vals["a"])
	}
	svc.SetProjection(nil) // ignored
	tab3, _ := svc.Table()
	if tab3.Projection != "dictionary" {
		t.Error("nil projection should be ignored")
	}
}

func TestUMSErrorPropagates(t *testing.T) {
	svc, ums := newFCS(t, map[string]float64{"a": 1}, nil, simclock.NewSim(t0), time.Minute)
	ums.SetErr(errors.New("ums down"))
	if _, err := svc.Priority("a"); err == nil {
		t.Error("UMS error swallowed")
	}
	if _, err := svc.Table(); err == nil {
		t.Error("UMS error swallowed by Table")
	}
	if _, err := svc.Tree(); err == nil {
		t.Error("UMS error swallowed by Tree")
	}
	if svc.LastRefreshError() == nil {
		t.Error("LastRefreshError not recorded")
	}
	ums.SetErr(nil)
	if _, err := svc.Priority("a"); err != nil {
		t.Fatal(err)
	}
	if svc.LastRefreshError() != nil {
		t.Error("LastRefreshError not cleared after success")
	}
}

func TestTreeExposed(t *testing.T) {
	svc, _ := newFCS(t, map[string]float64{"a": 0.5, "b": 0.5},
		map[string]float64{"a": 1, "b": 3}, simclock.NewSim(t0), time.Minute)
	tree, err := svc.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 1 {
		t.Errorf("tree depth = %d", tree.Depth())
	}
	if tree.Config.Resolution != 10000 {
		t.Errorf("resolution = %g", tree.Config.Resolution)
	}
}

func TestDefaultConfigApplied(t *testing.T) {
	p, _ := policy.FromShares(map[string]float64{"a": 1})
	svc := New(Config{Metrics: telemetry.NewRegistry()}, staticPDS{p}, &staticUMS{})
	if svc.cfg.Fairshare.Resolution != fairshare.DefaultConfig().Resolution {
		t.Error("default fairshare config not applied")
	}
	if svc.cfg.Projection == nil {
		t.Error("default projection not applied")
	}
}

// TestCacheTTLZeroDefaults pins the fix for the zero-TTL footgun: a zero
// CacheTTL used to recompute the whole tree on every Priority call; now it
// means DefaultCacheTTL.
func TestCacheTTLZeroDefaults(t *testing.T) {
	p, _ := policy.FromShares(map[string]float64{"a": 1})
	ums := &staticUMS{totals: map[string]float64{"a": 1}}
	svc := New(Config{Clock: simclock.NewSim(t0), Metrics: telemetry.NewRegistry()},
		staticPDS{p}, ums)
	if svc.CacheTTL() != DefaultCacheTTL {
		t.Fatalf("effective TTL = %v, want %v", svc.CacheTTL(), DefaultCacheTTL)
	}
	svc.Priority("a")
	svc.Priority("a")
	svc.Priority("a")
	if ums.Calls() != 1 {
		t.Errorf("zero TTL recomputed per call: %d UMS calls, want 1", ums.Calls())
	}
}

// TestNegativeTTLNeverExpires pins the documented semantics of a negative
// CacheTTL: only explicit Refresh recomputes.
func TestNegativeTTLNeverExpires(t *testing.T) {
	clock := simclock.NewSim(t0)
	svc, ums := newFCS(t, map[string]float64{"a": 1},
		map[string]float64{"a": 1}, clock, -1)
	svc.Priority("a")
	clock.Advance(1000 * time.Hour)
	svc.Priority("a")
	if ums.Calls() != 1 {
		t.Errorf("negative TTL expired: %d UMS calls, want 1", ums.Calls())
	}
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ums.Calls() != 2 {
		t.Errorf("explicit Refresh did not recompute: %d calls", ums.Calls())
	}
}

// TestStaleWhileRevalidate exercises the asynchronous serving mode: a read
// past the TTL returns the previous snapshot immediately and one background
// recomputation replaces it.
func TestStaleWhileRevalidate(t *testing.T) {
	clock := simclock.NewSim(t0)
	p, _ := policy.FromShares(map[string]float64{"a": 0.5, "b": 0.5})
	ums := &staticUMS{totals: map[string]float64{"a": 0, "b": 100}}
	svc := New(Config{Clock: clock, CacheTTL: time.Minute,
		Metrics: telemetry.NewRegistry()}, staticPDS{p}, ums)

	first, err := svc.Priority("a")
	if err != nil {
		t.Fatal(err)
	}
	ums.SetTotals(map[string]float64{"a": 100, "b": 0})
	clock.Advance(2 * time.Minute)

	// Stale read: served from the old snapshot, not the new usage.
	stale, err := svc.Priority("a")
	if err != nil {
		t.Fatal(err)
	}
	if stale.ComputedAt != first.ComputedAt || stale.Value != first.Value {
		t.Errorf("stale read not served from previous snapshot: %+v vs %+v", stale, first)
	}

	waitFor(t, func() bool { return ums.Calls() >= 2 }, "background refresh never ran")
	waitFor(t, func() bool { return svc.ComputedAt().After(first.ComputedAt) },
		"new snapshot never published")
	fresh, err := svc.Priority("a")
	if err != nil {
		t.Fatal(err)
	}
	if !(fresh.Value < first.Value) {
		t.Errorf("refreshed value did not reflect new usage: %g -> %g", first.Value, fresh.Value)
	}
}

// TestSingleFlightRefresh holds one UMS fetch in flight and checks that a
// burst of stale readers (a) all return immediately from the old snapshot
// and (b) trigger exactly one recomputation between them.
func TestSingleFlightRefresh(t *testing.T) {
	clock := simclock.NewSim(t0)
	p, _ := policy.FromShares(map[string]float64{"a": 1})
	ums := &staticUMS{totals: map[string]float64{"a": 1}}
	svc := New(Config{Clock: clock, CacheTTL: time.Minute,
		Metrics: telemetry.NewRegistry()}, staticPDS{p}, ums)
	if _, err := svc.Priority("a"); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	ums.mu.Lock()
	ums.block = block
	ums.mu.Unlock()
	clock.Advance(2 * time.Minute)

	const readers = 32
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Priority("a"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait() // all readers return while the refresh is still blocked

	ums.mu.Lock()
	ums.block = nil
	ums.mu.Unlock()
	close(block)
	waitFor(t, func() bool { return !svc.refreshing.Load() }, "refresh never finished")
	if got := ums.Calls(); got != 2 {
		t.Errorf("%d stale readers caused %d UMS fetches, want 2 (1 cold + 1 single-flight)",
			readers, got)
	}
}

// TestPriorityZeroAllocs pins the hot path at zero allocations: one atomic
// snapshot load plus map lookups, no tree walks, no copies.
func TestPriorityZeroAllocs(t *testing.T) {
	svc, _ := newFCS(t, map[string]float64{"a": 0.5, "b": 0.5},
		map[string]float64{"a": 1, "b": 3}, simclock.Real{}, time.Hour)
	if _, err := svc.Priority("a"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := svc.Priority("a"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Priority hot path allocates: %g allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := svc.Table(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Table hot path allocates: %g allocs/op, want 0", allocs)
	}
}

// TestRecorderAddsNoReadPathAllocs pins the tracing cost model: spans wrap
// the refresh path only, so attaching a recorder must leave Priority at zero
// allocations and PriorityBatch at exactly its recorder-free baseline (it
// allocates the response slice by design).
func TestRecorderAddsNoReadPathAllocs(t *testing.T) {
	build := func(rec *span.Recorder) *Service {
		p, err := policy.FromShares(map[string]float64{"a": 0.5, "b": 0.5})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Clock: simclock.Real{}, CacheTTL: time.Hour,
			SynchronousRefresh: true, Metrics: telemetry.NewRegistry(),
			Spans: rec},
			staticPDS{p}, &staticUMS{totals: map[string]float64{"a": 1, "b": 3}})
		if _, err := svc.Priority("a"); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	rec := span.NewRecorder(span.Config{Capacity: 64})
	traced := build(rec)

	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := traced.Priority("a"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Priority with recorder: %g allocs/op, want 0", allocs)
	}

	plain := build(nil)
	users := []string{"a", "b"}
	baseline := testing.AllocsPerRun(1000, func() {
		if _, err := plain.PriorityBatch(users); err != nil {
			t.Fatal(err)
		}
	})
	withRec := testing.AllocsPerRun(1000, func() {
		if _, err := traced.PriorityBatch(users); err != nil {
			t.Fatal(err)
		}
	})
	if withRec > baseline {
		t.Errorf("PriorityBatch with recorder: %g allocs/op, baseline %g", withRec, baseline)
	}
	if rec.Recorded() == 0 {
		t.Error("recorder captured no refresh spans — cost comparison is vacuous")
	}
}

func TestPriorityBatch(t *testing.T) {
	svc, ums := newFCS(t, map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2},
		map[string]float64{"a": 10, "b": 30, "c": 60}, simclock.NewSim(t0), time.Hour)
	resp, err := svc.PriorityBatch([]string{"a", "ghost", "c", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(resp.Entries))
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "ghost" {
		t.Errorf("missing = %v", resp.Missing)
	}
	if resp.Projection != "percental" {
		t.Errorf("projection = %q", resp.Projection)
	}
	if ums.Calls() != 1 {
		t.Errorf("batch consulted UMS %d times, want 1 snapshot", ums.Calls())
	}
	single, _ := svc.Priority("b")
	for _, e := range resp.Entries {
		if e.ComputedAt != resp.ComputedAt {
			t.Errorf("entry %s has ComputedAt %v, want snapshot-wide %v",
				e.User, e.ComputedAt, resp.ComputedAt)
		}
		if e.User == "b" && e.Value != single.Value {
			t.Errorf("batch value %g != single lookup %g", e.Value, single.Value)
		}
	}
}
