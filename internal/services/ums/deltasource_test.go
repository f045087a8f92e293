package ums

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/usage"
)

// cursorSource is a scripted Source: sums holds the current per-user
// sums, pending the users changed since the last Changes call.
type cursorSource struct {
	sums       map[string]float64
	pending    map[string]bool
	started    bool
	forceFull  bool // next Changes is Full (a moved reference)
	refuseSums int  // that many Sums calls answer !ok first
	scale      float64
	passes     int
	sumsCalls  int
}

func newCursorSource(sums map[string]float64) *cursorSource {
	return &cursorSource{sums: sums, pending: map[string]bool{}, scale: 0.5}
}

func (c *cursorSource) set(user string, v float64) {
	if v == 0 {
		delete(c.sums, user)
	} else {
		c.sums[user] = v
	}
	c.pending[user] = true
}

func (c *cursorSource) Changes(time.Time, usage.Decay) (usage.DeltaSet, error) {
	c.passes++
	ds := usage.DeltaSet{Scale: c.scale, Reference: t0, Users: len(c.sums)}
	if !c.started || c.forceFull {
		c.started, c.forceFull = true, false
		c.pending = map[string]bool{}
		ds.Full = true
		return ds, nil
	}
	ds.Changed = map[string]float64{}
	for u := range c.pending {
		ds.Changed[u] = c.sums[u]
	}
	c.pending = map[string]bool{}
	return ds, nil
}

func (c *cursorSource) Sums(time.Time) (usage.DeltaSet, bool) {
	c.sumsCalls++
	if c.refuseSums > 0 {
		c.refuseSums--
		c.forceFull = true
		return usage.DeltaSet{}, false
	}
	out := map[string]float64{}
	for u, v := range c.sums {
		out[u] = v
	}
	return usage.DeltaSet{Full: true, Totals: out, Scale: c.scale, Reference: t0, Users: len(out)}, true
}

func mapID(m map[string]float64) uintptr { return reflect.ValueOf(m).Pointer() }

// TestDeltaSourceGenerationsComeFromChangeSets: the UMS builds its
// generations from the source's change sets; complete sums are materialised
// when a consumer asks, once per generation, and a since=0 reader leaves
// every other consumer's watermark alone.
func TestDeltaSourceGenerationsComeFromChangeSets(t *testing.T) {
	src := newCursorSource(map[string]float64{"a": 10, "b": 20, "c": 30})
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour,
		Decay: usage.ExponentialHalfLife{HalfLife: time.Hour}}, src)

	first, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Full || first.Totals["b"] != 20 || first.Scale != 0.5 || !first.Reference.Equal(t0) {
		t.Fatalf("first pull = %+v", first)
	}
	if src.passes != 1 || src.sumsCalls != 1 {
		t.Fatalf("first pull cost %d passes and %d materialisations, want 1 and 1", src.passes, src.sumsCalls)
	}

	src.set("a", 11)
	s.Invalidate()
	// The bench's probe and the FCS, in the order the traced pass issues
	// them: a since=0 read first, then the consumer one version behind.
	probe, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Full || probe.Totals["a"] != 11 || probe.Version != first.Version+1 {
		t.Fatalf("probe = %+v", probe)
	}
	ds, err := s.UsageDeltas(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Full || len(ds.Changed) != 1 || ds.Changed["a"] != 11 || ds.Version != probe.Version || ds.Scale != 0.5 {
		t.Fatalf("a since=0 reader turned the follower's delta into %+v", ds)
	}
	again, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	if mapID(again.Totals) != mapID(probe.Totals) {
		t.Error("repeated since=0 read rebuilt the complete map")
	}
	if src.passes != 2 || src.sumsCalls != 2 {
		t.Fatalf("after one more generation: %d passes, %d materialisations, want 2 and 2", src.passes, src.sumsCalls)
	}

	// An unchanged pass keeps version and map; the next generation drops
	// the map, and nobody pays for one until somebody asks.
	s.Invalidate()
	same, _ := s.UsageDeltas(probe.Version)
	if same.Version != probe.Version || same.Full || len(same.Changed) != 0 {
		t.Fatalf("unchanged pass = %+v", same)
	}
	src.set("c", 0)
	s.Invalidate()
	gone, _ := s.UsageDeltas(probe.Version)
	if gone.Full || len(gone.Changed) != 1 {
		t.Fatalf("removal = %+v", gone)
	}
	if v, ok := gone.Changed["c"]; !ok || v != 0 {
		t.Fatalf("removed user not reported as 0: %v", gone.Changed)
	}
	if src.sumsCalls != 2 {
		t.Errorf("sparse generations materialised complete sums (%d calls)", src.sumsCalls)
	}

	// UsageTotals is decayed core-seconds whatever the pipeline carries.
	totals, _, err := s.UsageTotals()
	if err != nil {
		t.Fatal(err)
	}
	if len(totals) != 2 || totals["a"] != 5.5 || totals["b"] != 10 {
		t.Fatalf("UsageTotals = %v, want sums × scale", totals)
	}
}

// TestDeltaSourceFullMarkers: a source-side reset and a refused
// materialisation both end in a Full set with fresh complete sums.
func TestDeltaSourceFullMarkers(t *testing.T) {
	src := newCursorSource(map[string]float64{"a": 1, "b": 2})
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour}, src)
	first, _ := s.UsageDeltas(0)

	src.set("a", 3)
	src.forceFull = true
	s.Invalidate()
	ds, err := s.UsageDeltas(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Full || ds.Totals["a"] != 3 || ds.Version != first.Version+1 {
		t.Fatalf("after a source reset: %+v", ds)
	}

	// The scale moved between the pass and the materialisation: the UMS
	// runs another pass (Full, by the source's contract) and asks again.
	src.set("b", 4)
	src.refuseSums = 1
	s.Invalidate()
	passes := src.passes
	ds2, err := s.UsageDeltas(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ds2.Full || ds2.Totals["b"] != 4 {
		t.Fatalf("after a refused materialisation: %+v", ds2)
	}
	if src.passes != passes+2 {
		t.Errorf("%d passes for a refused materialisation, want 2", src.passes-passes)
	}
}

// TestInvalidatedPassStillPublishesItsGeneration: a pass that an Invalidate
// raced has moved the source's cursor, so its changes must reach the log
// even though the cache stays invalid.
func TestInvalidatedPassStillPublishesItsGeneration(t *testing.T) {
	src := newCursorSource(map[string]float64{"a": 1, "b": 2, "c": 3})
	entered, release := make(chan struct{}), make(chan struct{})
	gate := &gatedSource{cursorSource: src, blockAt: 2, entered: entered, release: release}
	s := New(Config{Clock: simclock.NewSim(t0), CacheTTL: time.Hour}, gate)
	first, _ := s.UsageDeltas(0)

	src.set("a", 5)
	s.Invalidate()
	done := make(chan usage.DeltaSet, 1)
	go func() {
		ds, _ := s.UsageDeltas(first.Version)
		done <- ds
	}()
	<-entered
	s.Invalidate() // arrives mid-pass
	close(release)
	if ds := <-done; ds.Full || ds.Changed["a"] != 5 {
		t.Fatalf("owner of the raced pass got %+v", ds)
	}
	if !s.ComputedAt().IsZero() {
		t.Error("raced pass left the cache valid")
	}
	ds, _ := s.UsageDeltas(first.Version) // runs another (empty) pass
	if ds.Full || len(ds.Changed) != 1 || ds.Changed["a"] != 5 {
		t.Fatalf("the raced pass's change was lost: %+v", ds)
	}
}

// gatedSource blocks inside its blockAt-th Changes call until released.
type gatedSource struct {
	*cursorSource
	blockAt          int
	entered, release chan struct{}
}

func (g *gatedSource) Changes(now time.Time, d usage.Decay) (usage.DeltaSet, error) {
	if g.passes+1 == g.blockAt {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.cursorSource.Changes(now, d)
}
