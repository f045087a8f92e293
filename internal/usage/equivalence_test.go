package usage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// equivalence_test.go pins the optimized totals path — the O(users)
// incremental half-life sums — to the seed-style per-bin reference sum:
// exact for None (identical float operations in identical order), and ≤1e-9
// relative error for exponential half-life decay.

const expRelTol = 1e-9

func checkClose(t *testing.T, ctx string, got, want map[string]float64, relTol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: user sets differ: got %d users, want %d", ctx, len(got), len(want))
	}
	for u, w := range want {
		g, ok := got[u]
		if !ok {
			t.Fatalf("%s: user %q missing", ctx, u)
		}
		if relTol == 0 {
			if g != w {
				t.Fatalf("%s: user %q: got %v, want exactly %v", ctx, u, g, w)
			}
			continue
		}
		tol := relTol * math.Max(math.Max(math.Abs(g), math.Abs(w)), 1)
		if math.Abs(g-w) > tol {
			t.Fatalf("%s: user %q: got %v, want %v (|Δ|=%g > %g)",
				ctx, u, g, w, math.Abs(g-w), tol)
		}
	}
}

// checkAllDecays compares DecayedTotals against the reference with and
// without decay at `now`.
func checkAllDecays(t *testing.T, h *Histogram, now time.Time, halfLife time.Duration) {
	t.Helper()
	for _, tc := range []struct {
		d      Decay
		relTol float64
	}{
		{None{}, 0},
		{ExponentialHalfLife{HalfLife: halfLife}, expRelTol},
	} {
		got := h.DecayedTotals(now, tc.d)
		want := seedDecayedTotals(h, now, tc.d)
		checkClose(t, fmt.Sprintf("%s at %v", tc.d.Name(), now), got, want, tc.relTol)
	}
}

// TestEquivalenceRandomizedWorkloads drives randomized mixes of every
// mutation primitive and re-verifies both decay paths after each burst,
// with the query time walking forward (and occasionally jumping far enough
// to force reference rebasing, or stepping behind fresh bins to force the
// clamped exact path).
func TestEquivalenceRandomizedWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := NewHistogram(time.Hour)
			halfLife := time.Duration(1+rng.Intn(72)) * time.Hour
			users := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace"}
			now := t0
			randAt := func() time.Time {
				// Mostly near now, sometimes far in the past, sometimes
				// ahead of now (bins that have not started exercise the
				// held age).
				switch rng.Intn(10) {
				case 0:
					return now.Add(-time.Duration(rng.Intn(2000)) * time.Hour)
				case 1:
					return now.Add(time.Duration(rng.Intn(30)) * time.Hour)
				default:
					return now.Add(-time.Duration(rng.Intn(48)) * time.Hour)
				}
			}
			for round := 0; round < 40; round++ {
				for op := 0; op < 30; op++ {
					u := users[rng.Intn(len(users))]
					switch rng.Intn(5) {
					case 0:
						h.Add(u, randAt(), 1+rng.Float64()*1e4)
					case 1:
						h.AddSpread(u, randAt(),
							time.Duration(1+rng.Intn(7200))*time.Minute, 1+rng.Intn(16))
					case 2:
						// Overwrite or delete a bin.
						v := 0.0
						if rng.Intn(4) > 0 {
							v = rng.Float64() * 2e4
						}
						h.SetBin(u, randAt(), v)
					case 3:
						recs := make([]Record, rng.Intn(8))
						for i := range recs {
							recs[i] = Record{
								User:          users[rng.Intn(len(users))],
								IntervalStart: randAt(),
								CoreSeconds:   rng.Float64() * 1e4,
							}
						}
						h.IngestBatch(recs)
					case 4:
						recs := make([]Record, rng.Intn(8))
						for i := range recs {
							recs[i] = Record{
								User:          users[rng.Intn(len(users))],
								IntervalStart: randAt(),
								CoreSeconds:   rng.Float64() * 2e4,
							}
						}
						h.SetRecords(recs)
					}
				}
				// Advance time; every few rounds jump far past the rebase
				// horizon, or step backwards behind data already written.
				switch rng.Intn(8) {
				case 0:
					now = now.Add(time.Duration(rebaseHalfLives*3) * halfLife)
				case 1:
					now = now.Add(-6 * time.Hour)
				default:
					now = now.Add(time.Duration(rng.Intn(5)) * time.Hour)
				}
				checkAllDecays(t, h, now, halfLife)
			}
		})
	}
}

// TestEquivalenceExchangeWorkload mirrors the inter-site exchange shape:
// each round re-fetches the open interval and overwrites it with a grown
// value via SetRecords (monotone overwrites — the case the incremental
// accumulators absorb as O(1) deltas), while the query time tracks the data.
func TestEquivalenceExchangeWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	h := NewHistogram(time.Hour)
	halfLife := 24 * time.Hour
	open := map[string]float64{}
	for round := 0; round < 200; round++ {
		binStart := t0.Add(time.Duration(round/4) * time.Hour)
		recs := make([]Record, 0, 8)
		for u := 0; u < 8; u++ {
			name := fmt.Sprintf("user%02d", u)
			open[name] += rng.Float64() * 1e3
			recs = append(recs, Record{
				User: name, IntervalStart: binStart, CoreSeconds: open[name],
			})
		}
		h.SetRecords(recs)
		if round%4 == 3 {
			// Interval closes; the next round starts a fresh open bin.
			for k := range open {
				delete(open, k)
			}
		}
		now := binStart.Add(time.Duration(rng.Intn(120)) * time.Minute)
		d := ExponentialHalfLife{HalfLife: halfLife}
		got := h.DecayedTotals(now, d)
		want := seedDecayedTotals(h, now, d)
		checkClose(t, fmt.Sprintf("round %d", round), got, want, expRelTol)
	}
}

// TestEquivalenceManyHalfLives asks one histogram for a different half-life
// on every pass, each of which registers a new tracker in place of the last,
// and verifies every answer against the reference.
func TestEquivalenceManyHalfLives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram(30 * time.Minute)
	for i := 0; i < 500; i++ {
		h.Add(fmt.Sprintf("u%02d", rng.Intn(20)),
			t0.Add(time.Duration(rng.Intn(10000))*time.Minute), 1+rng.Float64()*1e3)
	}
	now := t0.Add(200 * time.Hour)
	for i := 0; i < 12; i++ {
		hl := time.Duration(1+i) * time.Hour
		d := ExponentialHalfLife{HalfLife: hl}
		got := h.DecayedTotals(now, d)
		want := seedDecayedTotals(h, now, d)
		checkClose(t, fmt.Sprintf("halfLife=%v", hl), got, want, expRelTol)
		if h.tracker.halfLife != hl {
			t.Fatalf("tracker half-life = %v, want %v", h.tracker.halfLife, hl)
		}
		now = now.Add(17 * time.Minute)
	}
}

// TestEquivalenceIncrementalStaysIncremental verifies the fast path is
// actually exercised: after a totals pass, a fresh in-order Add must leave
// the user clean (O(1) delta), and a shrinking overwrite must flag exactly
// the touched user for recompute.
func TestEquivalenceIncrementalStaysIncremental(t *testing.T) {
	h := NewHistogram(time.Hour)
	d := ExponentialHalfLife{HalfLife: 12 * time.Hour}
	h.Add("a", t0, 100)
	h.Add("b", t0, 200)
	now := t0.Add(2 * time.Hour)
	h.DecayedTotals(now, d) // registers the tracker
	if h.tracker == nil {
		t.Fatal("no tracker registered")
	}

	h.Add("a", now.Add(-30*time.Minute), 50) // in-order add: O(1) fold
	st := h.stripeFor("a")
	st.mu.RLock()
	aDirty := st.users["a"].exp.dirty
	st.mu.RUnlock()
	if aDirty {
		t.Error("in-order Add marked user dirty; delta fold not taken")
	}

	h.SetBin("b", t0, 10) // shrink: must flag b, and only b
	st = h.stripeFor("b")
	st.mu.RLock()
	bDirty := st.users["b"].exp.dirty
	st.mu.RUnlock()
	if !bDirty {
		t.Error("shrinking SetBin left user clean; stale sum would be served")
	}

	now = now.Add(time.Hour)
	got := h.DecayedTotals(now, d)
	want := seedDecayedTotals(h, now, d)
	checkClose(t, "after mixed mutations", got, want, expRelTol)

	// The recompute pass must have cleaned b again.
	st.mu.RLock()
	bDirty = st.users["b"].exp.dirty
	st.mu.RUnlock()
	if bDirty {
		t.Error("totals pass did not persist the recomputed sum")
	}
}

// TestRecordsSinceMatchesFilteredRecords pins the binary-searched tail
// export to the filter-everything definition.
func TestRecordsSinceMatchesFilteredRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHistogram(time.Hour)
	for i := 0; i < 400; i++ {
		h.Add(fmt.Sprintf("u%02d", rng.Intn(30)),
			t0.Add(time.Duration(rng.Intn(5000))*time.Minute), 1+rng.Float64()*10)
	}
	for _, since := range []time.Time{
		{}, // zero time: everything
		t0.Add(-time.Hour),
		t0.Add(20 * time.Hour),
		t0.Add(30*time.Hour + 17*time.Minute), // unaligned threshold
		t0.Add(9999 * time.Hour),              // nothing
	} {
		got := h.RecordsSince("s", since)
		all := h.Records("s")
		want := make([]Record, 0, len(all))
		for _, r := range all {
			if !r.IntervalStart.Before(since) {
				want = append(want, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("since %v: %d records, want %d", since, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("since %v: record %d = %+v, want %+v", since, i, got[i], want[i])
			}
		}
	}
}
