package usage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// sameBits fails unless a and b hold the same bins, plain sums and decayed
// sums down to the last bit.
func sameBits(t *testing.T, label string, a, b *Histogram, now time.Time) {
	t.Helper()
	ra, rb := a.Records("s"), b.Records("s")
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d records", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].User != rb[i].User || !ra[i].IntervalStart.Equal(rb[i].IntervalStart) ||
			math.Float64bits(ra[i].CoreSeconds) != math.Float64bits(rb[i].CoreSeconds) {
			t.Fatalf("%s: record %d: %+v vs %+v", label, i, ra[i], rb[i])
		}
	}
	da := a.DecayedTotals(now, ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour})
	db := b.DecayedTotals(now, ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour})
	for u, v := range da {
		if math.Float64bits(v) != math.Float64bits(db[u]) {
			t.Fatalf("%s: decayed total of %s: %x vs %x", label, u, math.Float64bits(v), math.Float64bits(db[u]))
		}
		if pa, pb := total(a, u), total(b, u); math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("%s: plain sum of %s: %v vs %v", label, u, pa, pb)
		}
	}
	if len(da) != len(db) {
		t.Fatalf("%s: %d vs %d users", label, len(da), len(db))
	}
}

// TestChangingKeepsExactlyWhatSetRecordsApplies: a histogram that is handed
// only Changing(batch) ends, bit for bit, where its twin that is handed the
// whole batch ends — bins, plain sums and the incremental decayed sums —
// over re-sent values, overwrites up and down, first bins of new users,
// removals of bins that exist and of bins that do not, and an empty user. The
// kept count is checked against the test's own account of what changes.
func TestChangingKeepsExactlyWhatSetRecordsApplies(t *testing.T) {
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	now := base.Add(72 * time.Hour)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		whole, filtered := NewHistogram(time.Hour), NewHistogram(time.Hour)
		// Register the incremental tracker before the first batch, as a
		// refreshed site has.
		attach(whole, now, ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour})
		attach(filtered, now, ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour})
		stored := map[string]float64{} // "user|hour" → value, the test's model
		key := func(u string, h int) string { return fmt.Sprintf("%s|%d", u, h) }

		for round := 0; round < 6; round++ {
			var batch []Record
			want := 0
			for u := 0; u < 60; u++ {
				user := fmt.Sprintf("user%03d", u)
				if u == 0 {
					user = ""
				}
				for h := 0; h < 4; h++ {
					if rng.Intn(3) == 0 {
						continue
					}
					old, has := stored[key(user, h)]
					var v float64
					switch rng.Intn(6) {
					case 0:
						v = 0 // removal
					case 1:
						v = -rng.Float64() // removal by a negative value
					case 2, 3:
						v = old // re-sent as stored (0 for a bin that is not there)
					default:
						v = float64(rng.Intn(5000)+1) * 0.25
					}
					batch = append(batch, Record{User: user, Site: "s", IntervalStart: base.Add(time.Duration(h) * time.Hour), CoreSeconds: v})
					if user == "" {
						continue
					}
					switch {
					case v <= 0 && has:
						want++
						delete(stored, key(user, h))
					case v > 0 && (!has || v != old):
						want++
						stored[key(user, h)] = v
					}
				}
			}
			slices.SortFunc(batch, func(a, b Record) int {
				if c := strings.Compare(a.User, b.User); c != 0 {
					return c
				}
				return a.IntervalStart.Compare(b.IntervalStart)
			})
			kept := filtered.Changing(batch)
			if len(kept) != want {
				t.Fatalf("seed %d round %d: Changing kept %d of %d records, want %d", seed, round, len(kept), len(batch), want)
			}
			whole.SetRecords(batch)
			filtered.SetRecords(kept)
			sameBits(t, fmt.Sprintf("seed %d round %d", seed, round), whole, filtered, now)
			if again := filtered.Changing(batch); len(again) != 0 {
				t.Fatalf("seed %d round %d: %d records of an applied batch still count as changes", seed, round, len(again))
			}
		}
	}
}

// TestChangingReturnsUnorderedBatchesWhole: records are judged against the
// bins as stored, which is wrong for the second of two records that name one
// bin. Such a batch — no export produces one — must come back whole, so that
// SetRecords' last-one-wins still decides.
func TestChangingReturnsUnorderedBatchesWhole(t *testing.T) {
	at := time.Date(2014, 3, 1, 5, 0, 0, 0, time.UTC)
	rec := func(user string, at time.Time, v float64) Record {
		return Record{User: user, Site: "s", IntervalStart: at, CoreSeconds: v}
	}
	for name, batch := range map[string][]Record{
		"one bin twice":        {rec("u", at, 5), rec("u", at, 3)},
		"one bin twice, split": {rec("u", at, 5), rec("u", at.Add(20*time.Minute), 3)},
		"users descending":     {rec("v", at, 3), rec("u", at, 3)},
		"bins descending":      {rec("u", at.Add(time.Hour), 3), rec("u", at, 3)},
	} {
		h := NewHistogram(time.Hour)
		h.SetBin("u", at, 3)
		got := h.Changing(batch)
		if len(got) != len(batch) {
			t.Errorf("%s: Changing kept %d of %d records, want the whole batch", name, len(got), len(batch))
		}
		h.SetRecords(got)
		for _, r := range h.Records("s") {
			if r.User == "u" && r.IntervalStart.Equal(at) && r.CoreSeconds != 3 {
				t.Errorf("%s: bin ends at %v, want the last record's 3", name, r.CoreSeconds)
			}
		}
	}
}
