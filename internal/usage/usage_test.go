package usage

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

// addOne accumulates v into user's bin containing at: a one-record
// IngestBatch, the locked operation every local report runs.
func addOne(h *Histogram, user string, at time.Time, v float64) {
	h.IngestBatch([]Record{{User: user, IntervalStart: at, CoreSeconds: v}})
}

// setOne replaces user's bin containing at with v (v ≤ 0 removes it): a
// one-record SetRecords, the locked operation of a peer pull.
func setOne(h *Histogram, user string, at time.Time, v float64) {
	h.SetRecords([]Record{{User: user, IntervalStart: at, CoreSeconds: v}})
}

// TestDecayWeightsAtZeroAge: every decay weighs 1 at age zero, and a negative
// age — a started bin whose midpoint is still ahead — is weighted by the same
// formula, above 1 (it used to be held at 1, which made the value of an open
// bin move with the clock).
func TestDecayWeightsAtZeroAge(t *testing.T) {
	hl := ExponentialHalfLife{HalfLife: time.Hour}
	for _, d := range []Decay{hl, None{}} {
		if w := d.Weight(0); w != 1 {
			t.Errorf("%s Weight(0) = %g, want 1", d.Name(), w)
		}
	}
	if w := (None{}).Weight(-time.Minute); w != 1 {
		t.Errorf("none Weight(neg) = %g, want 1", w)
	}
	if w := hl.Weight(-30 * time.Minute); w != math.Exp2(0.5) {
		t.Errorf("exp-half-life Weight(-H/2) = %v, want 2^½", w)
	}
	if p := hl.Weight(-7*time.Minute) * hl.Weight(7*time.Minute); math.Abs(p-1) > 1e-15 {
		t.Errorf("Weight(-a)·Weight(a) = %v, want 1", p)
	}
}

// TestBinAge pins the one definition of a bin's age: measured from the
// midpoint, from −width/2 when the bin opens, and held there before it does.
func TestBinAge(t *testing.T) {
	start := t0.Add(3 * time.Hour)
	for _, tc := range []struct{ sinceStart, want time.Duration }{
		{-48 * time.Hour, -30 * time.Minute}, // not started: held
		{-time.Nanosecond, -30 * time.Minute},
		{0, -30 * time.Minute}, // opens
		{15 * time.Minute, -15 * time.Minute},
		{30 * time.Minute, 0}, // midpoint
		{time.Hour, 30 * time.Minute},
		{10 * time.Hour, 9*time.Hour + 30*time.Minute},
	} {
		if got := BinAge(start.Add(tc.sinceStart), start, time.Hour); got != tc.want {
			t.Errorf("BinAge at start%+v = %v, want %v", tc.sinceStart, got, tc.want)
		}
	}
}

func TestExponentialHalfLife(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: time.Hour}
	if w := d.Weight(time.Hour); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("weight at one half-life = %g", w)
	}
	if w := d.Weight(2 * time.Hour); math.Abs(w-0.25) > 1e-12 {
		t.Errorf("weight at two half-lives = %g", w)
	}
	// Degenerate half-life means no decay.
	if w := (ExponentialHalfLife{}).Weight(time.Hour); w != 1 {
		t.Errorf("zero half-life weight = %g", w)
	}
}

func TestDecayMonotoneNonIncreasing(t *testing.T) {
	ds := []Decay{
		ExponentialHalfLife{HalfLife: 30 * time.Minute},
		None{},
	}
	for _, d := range ds {
		f := func(a, b uint32) bool {
			x := time.Duration(a%100000) * time.Second
			y := time.Duration(b%100000) * time.Second
			if x > y {
				x, y = y, x
			}
			wx, wy := d.Weight(x), d.Weight(y)
			return wy <= wx+1e-12 && wx >= 0 && wx <= 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

// total is user's plain sum: its bins added up, without decay.
func total(h *Histogram, user string) float64 { return h.DecayedTotal(user, t0, None{}) }

func TestHistogramAddAndTotal(t *testing.T) {
	h := NewHistogram(time.Hour)
	addOne(h, "alice", t0, 100)
	addOne(h, "alice", t0.Add(30*time.Minute), 50) // same bin
	addOne(h, "alice", t0.Add(2*time.Hour), 25)
	addOne(h, "bob", t0, 10)
	if got := total(h, "alice"); got != 175 {
		t.Errorf("alice total = %g", got)
	}
	if got := total(h, "bob"); got != 10 {
		t.Errorf("bob total = %g", got)
	}
	if got := total(h, "carol"); got != 0 {
		t.Errorf("carol total = %g", got)
	}
	// Ignored inputs.
	addOne(h, "", t0, 5)
	addOne(h, "alice", t0, 0)
	addOne(h, "alice", t0, -3)
	if got := total(h, "alice"); got != 175 {
		t.Errorf("after ignored adds, total = %g", got)
	}
}

func TestHistogramDecayedTotal(t *testing.T) {
	h := NewHistogram(time.Hour)
	addOne(h, "u", t0, 100)                   // bin [t0, t0+1h), midpoint t0+30m
	addOne(h, "u", t0.Add(10*time.Hour), 100) // midpoint t0+10.5h
	now := t0.Add(11 * time.Hour)
	d := ExponentialHalfLife{HalfLife: time.Hour}
	// Ages: 10.5h and 0.5h.
	want := 100*math.Exp2(-10.5) + 100*math.Exp2(-0.5)
	if got := h.DecayedTotal("u", now, d); math.Abs(got-want) > 1e-9 {
		t.Errorf("decayed = %g, want %g", got, want)
	}
	// nil decay treated as None.
	if got := h.DecayedTotal("u", now, nil); got != 200 {
		t.Errorf("nil decay total = %g", got)
	}
	// A bin is valued at its midpoint from the moment it opens: 2^(+x) in its
	// first half, exactly its content at the midpoint, decaying after. (The
	// first half used to be held at the content, so the value depended on
	// which side of the midpoint it was read.) A bin that has not started is
	// held at the weight of a bin just opened.
	h2 := NewHistogram(time.Hour)
	addOne(h2, "u", t0.Add(5*time.Hour+40*time.Minute), 100) // bin [t0+5h, t0+6h)
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 100 * math.Exp2(0.5)}, // not started
		{5 * time.Hour, 100 * math.Exp2(0.5)},
		{5*time.Hour + 15*time.Minute, 100 * math.Exp2(0.25)},
		{5*time.Hour + 30*time.Minute, 100},
		{6 * time.Hour, 100 * math.Exp2(-0.5)},
	} {
		if got := h2.DecayedTotal("u", t0.Add(tc.at), d); got != tc.want {
			t.Errorf("one bin read at +%v decayed = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestHistogramAddSpread(t *testing.T) {
	h := NewHistogram(time.Hour)
	// 90-minute job starting at t0+30m, 2 procs: 60m in bin0, 30m in bin1.
	h.AddSpread("u", t0.Add(30*time.Minute), 90*time.Minute, 2)
	recs := h.Records("s")
	if len(recs) != 2 {
		t.Fatalf("records = %v", recs)
	}
	if math.Abs(recs[0].CoreSeconds-3600) > 1e-9 {
		t.Errorf("bin0 = %g, want 3600 (30m × 2 procs)", recs[0].CoreSeconds)
	}
	if math.Abs(recs[1].CoreSeconds-7200) > 1e-9 {
		t.Errorf("bin1 = %g, want 7200 (60m × 2 procs)", recs[1].CoreSeconds)
	}
	if got := total(h, "u"); math.Abs(got-10800) > 1e-9 {
		t.Errorf("total = %g, want 90m × 2 = 10800", got)
	}
}

func TestHistogramRecordsAndIngest(t *testing.T) {
	h := NewHistogram(time.Hour)
	addOne(h, "b", t0, 10)
	addOne(h, "a", t0.Add(time.Hour), 20)
	addOne(h, "a", t0, 5)
	recs := h.Records("site1")
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	// Sorted by user then interval.
	if recs[0].User != "a" || recs[1].User != "a" || recs[2].User != "b" {
		t.Errorf("order = %v", recs)
	}
	if !recs[0].IntervalStart.Before(recs[1].IntervalStart) {
		t.Error("intervals not sorted")
	}
	if recs[0].Site != "site1" {
		t.Errorf("site = %q", recs[0].Site)
	}

	// Ingesting into another histogram reproduces totals.
	h2 := NewHistogram(time.Hour)
	h2.IngestBatch(recs)
	if got := total(h2, "a"); got != 25 {
		t.Errorf("ingested a = %g", got)
	}
	if got := total(h2, "b"); got != 10 {
		t.Errorf("ingested b = %g", got)
	}
}

func TestRecordsSince(t *testing.T) {
	h := NewHistogram(time.Hour)
	addOne(h, "u", t0, 1)
	addOne(h, "u", t0.Add(5*time.Hour), 2)
	recs := h.RecordsSince("s", t0.Add(2*time.Hour))
	if len(recs) != 1 || recs[0].CoreSeconds != 2 {
		t.Errorf("RecordsSince = %v", recs)
	}
}

func TestHistogramMergeAndClone(t *testing.T) {
	a := NewHistogram(time.Hour)
	addOne(a, "u", t0, 10)
	b := NewHistogram(time.Hour)
	addOne(b, "u", t0, 5)
	addOne(b, "v", t0, 7)
	a.Merge(b)
	if got := total(a, "u"); got != 15 {
		t.Errorf("merged u = %g", got)
	}
	if got := total(a, "v"); got != 7 {
		t.Errorf("merged v = %g", got)
	}
	a.Merge(nil) // no-op

	c := a.Clone()
	addOne(c, "u", t0, 100)
	if total(a, "u") != 15 {
		t.Error("Clone shares state")
	}
}

func TestHistogramConcurrentAccess(t *testing.T) {
	h := NewHistogram(time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				addOne(h, "u", t0.Add(time.Duration(i)*time.Second), 1)
				_ = h.DecayedTotal("u", t0.Add(time.Hour), ExponentialHalfLife{HalfLife: time.Hour})
				_ = h.UserCount()
			}
		}(w)
	}
	wg.Wait()
	if got := total(h, "u"); got != 8*500 {
		t.Errorf("concurrent total = %g, want 4000", got)
	}
}

func TestHistogramPreEpochBinning(t *testing.T) {
	h := NewHistogram(time.Hour)
	old := time.Date(1969, 12, 31, 23, 30, 0, 0, time.UTC)
	addOne(h, "u", old, 10)
	recs := h.Records("s")
	if len(recs) != 1 {
		t.Fatalf("records = %v", recs)
	}
	want := time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC)
	if !recs[0].IntervalStart.Equal(want) {
		t.Errorf("pre-epoch bin start = %v, want %v", recs[0].IntervalStart, want)
	}
}

func TestIngestBatchAccumulates(t *testing.T) {
	h := NewHistogram(time.Hour)
	h.IngestBatch([]Record{
		{User: "a", IntervalStart: t0, CoreSeconds: 10},
		{User: "a", IntervalStart: t0, CoreSeconds: 5}, // same bin: accumulates
		{User: "b", IntervalStart: t0.Add(time.Hour), CoreSeconds: 7},
		{User: "", IntervalStart: t0, CoreSeconds: 3},  // skipped
		{User: "a", IntervalStart: t0, CoreSeconds: 0}, // skipped
		{User: "a", IntervalStart: t0, CoreSeconds: -2},
	})
	if got := total(h, "a"); got != 15 {
		t.Errorf("a = %g, want 15", got)
	}
	if got := total(h, "b"); got != 7 {
		t.Errorf("b = %g, want 7", got)
	}
	h.IngestBatch(nil) // no-op
}

func TestSetRecordsReplacesAndDeletes(t *testing.T) {
	h := NewHistogram(time.Hour)
	addOne(h, "a", t0, 100)
	addOne(h, "a", t0.Add(time.Hour), 50)
	h.SetRecords([]Record{
		{User: "a", IntervalStart: t0, CoreSeconds: 10},               // overwrite
		{User: "a", IntervalStart: t0.Add(time.Hour), CoreSeconds: 0}, // delete
		{User: "b", IntervalStart: t0, CoreSeconds: 4},                // create
	})
	if got := total(h, "a"); got != 10 {
		t.Errorf("a = %g, want 10", got)
	}
	if got := total(h, "b"); got != 4 {
		t.Errorf("b = %g, want 4", got)
	}
	// Deleting a user's last bin removes the user.
	h.SetRecords([]Record{{User: "b", IntervalStart: t0, CoreSeconds: -1}})
	if n := h.UserCount(); n != 1 || total(h, "a") != 10 {
		t.Errorf("%d users, a = %g; want only a, at 10", n, total(h, "a"))
	}
}

func TestOutOfOrderAddsStaySorted(t *testing.T) {
	h := NewHistogram(time.Hour)
	// Arrive out of time order: bins must still export sorted.
	addOne(h, "u", t0.Add(5*time.Hour), 5)
	addOne(h, "u", t0, 1)
	addOne(h, "u", t0.Add(2*time.Hour), 2)
	addOne(h, "u", t0.Add(time.Hour), 3)
	recs := h.Records("s")
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].IntervalStart.Before(recs[i].IntervalStart) {
			t.Fatalf("records out of order: %v", recs)
		}
	}
	if got := total(h, "u"); got != 11 {
		t.Errorf("total = %g, want 11", got)
	}
}

// TestMergeRefusesDifferingWidths: Merge folds bin onto bin, so histograms
// of different widths do not merge; it panics rather than mis-bin.
func TestMergeRefusesDifferingWidths(t *testing.T) {
	a := NewHistogram(time.Hour)
	b := NewHistogram(30 * time.Minute)
	addOne(b, "u", t0.Add(10*time.Minute), 5)
	defer func() {
		if recover() == nil {
			t.Error("merged a 30m histogram into a 1h one")
		}
	}()
	a.Merge(b)
}

func TestNewHistogramDefaultsWidth(t *testing.T) {
	h := NewHistogram(0)
	if got, want := h.AlignStart(t0.Add(90*time.Minute)), t0.Add(time.Hour).Unix(); got != want {
		t.Errorf("90 minutes in aligns to %d, want %d (hour bins)", got, want)
	}
}
