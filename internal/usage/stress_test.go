package usage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramStressAllOps hammers every mutation and read primitive, and
// a change cursor's passes, from concurrent goroutines (run under -race in
// CI). One dedicated writer makes deterministic adds to an "accounting" user
// so the final state is checkable despite the surrounding chaos.
func TestHistogramStressAllOps(t *testing.T) {
	h := NewHistogram(time.Minute)
	const (
		writers = 6
		readers = 4
		rounds  = 300
	)
	var writeWG, readWG sync.WaitGroup
	var stop atomic.Bool

	// Deterministic accountant: known total, fixed user.
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		for i := 0; i < rounds; i++ {
			addOne(h, "accountant", t0.Add(time.Duration(i)*time.Second), 2)
			h.AddSpread("accountant", t0.Add(time.Duration(i)*time.Minute), 90*time.Second, 1)
		}
	}()

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			user := fmt.Sprintf("chaos%d", w)
			for i := 0; i < rounds; i++ {
				at := t0.Add(time.Duration(rng.Intn(10000)) * time.Second)
				switch i % 5 {
				case 0:
					addOne(h, user, at, rng.Float64()*10)
				case 1:
					h.AddSpread(user, at, time.Duration(1+rng.Intn(600))*time.Second, 1+rng.Intn(4))
				case 2:
					setOne(h, user, at, rng.Float64()*20-2) // sometimes deletes
				case 3:
					h.IngestBatch([]Record{
						{User: user, IntervalStart: at, CoreSeconds: rng.Float64() * 5},
						{User: fmt.Sprintf("chaos%d", (w+1)%writers), IntervalStart: at, CoreSeconds: 1},
					})
				case 4:
					h.SetRecords([]Record{
						{User: user, IntervalStart: at, CoreSeconds: rng.Float64() * 30},
					})
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			d := ExponentialHalfLife{HalfLife: time.Hour}
			now := t0.Add(3 * time.Hour)
			var c Cursor // one cursor: reader 0 is its only caller
			for !stop.Load() {
				switch r % 4 {
				case 0:
					c.Advance([]*Histogram{h}, now, d)
					c.Sums([]*Histogram{h}, now)
					_ = h.DecayedTotals(now, d)
				case 1:
					_ = h.RecordsSince("s", t0.Add(time.Duration(r)*time.Hour))
				case 2:
					_ = h.UserCount()
					_ = h.DecayedTotal("accountant", now, d)
				case 3:
					_ = h.Records("s")
					_ = h.Clone()
				}
			}
		}(r)
	}

	writeWG.Wait()
	stop.Store(true)
	readWG.Wait()

	want := float64(rounds)*2 + float64(rounds)*90
	if got := total(h, "accountant"); got != want {
		t.Errorf("accountant total = %g, want %g", got, want)
	}
}

// TestDecayedTotalsReadConsistent is the torn-snapshot regression test: a
// writer keeps an invariant (the two bins of one user always sum to C) via
// atomic SetRecords batches, while readers take whole-histogram totals. The
// old implementation re-acquired the lock per user between Users() and each
// DecayedTotal, so a read could observe a state that existed at no single
// instant; the striped histogram holds every stripe for the duration of the
// pass, so the invariant must never appear broken.
func TestDecayedTotalsReadConsistent(t *testing.T) {
	h := NewHistogram(time.Hour)
	const C = 1 << 20 // power of two: k and C-k are exact in float64
	b0, b1 := t0, t0.Add(time.Hour)
	h.SetRecords([]Record{
		{User: "inv", IntervalStart: b0, CoreSeconds: C / 2},
		{User: "inv", IntervalStart: b1, CoreSeconds: C / 2},
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			k := float64(1 + rng.Intn(C-1))
			h.SetRecords([]Record{
				{User: "inv", IntervalStart: b0, CoreSeconds: k},
				{User: "inv", IntervalStart: b1, CoreSeconds: C - k},
			})
		}
	}()

	now := t0.Add(2 * time.Hour)
	for i := 0; i < 5000; i++ {
		got := h.DecayedTotals(now, None{})["inv"]
		if got != C {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("read %d: torn snapshot: total = %g, want %d", i, got, C)
		}
		if tot := total(h, "inv"); tot != C {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("read %d: torn user total = %g, want %d", i, tot, C)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentDecayedTotalsAgree runs totals passes from many goroutines
// against a quiescent histogram whose tracker a cursor pass registered:
// every pass reads the incremental sums under the stripe read locks and
// must agree with the per-bin reference.
func TestConcurrentDecayedTotalsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistogram(time.Hour)
	for i := 0; i < 1000; i++ {
		addOne(h, fmt.Sprintf("u%03d", rng.Intn(100)),
			t0.Add(time.Duration(rng.Intn(500))*time.Hour), 1+rng.Float64()*100)
	}
	d := ExponentialHalfLife{HalfLife: 24 * time.Hour}
	now := t0.Add(600 * time.Hour)
	attach(h, now.Add(-time.Hour), d)
	want := seedDecayedTotals(h, now, d)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := h.DecayedTotals(now, d)
				for u, w := range want {
					g, ok := got[u]
					if !ok || absRel(g, w) > expRelTol {
						errs <- fmt.Errorf("user %s: got %v want %v", u, g, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func absRel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 1 {
		m = 1
	}
	return d / m
}
