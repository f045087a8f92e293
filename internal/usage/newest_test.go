package usage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// filterSince is the definition RecordsSince answers from its newest-bin
// column: the full export, filtered.
func filterSince(h *Histogram, t time.Time) []Record {
	var out []Record
	for _, r := range h.Records("s") {
		if !r.IntervalStart.Before(t) {
			out = append(out, r)
		}
	}
	return out
}

// checkColumn verifies the newest-bin column of every indexed stripe: one
// entry per user, at the user's slot, holding its newest bin start.
func checkColumn(t *testing.T, h *Histogram) {
	t.Helper()
	for i := range h.stripes {
		st := &h.stripes[i]
		if !st.indexed {
			continue
		}
		if len(st.newest) != len(st.users) {
			t.Fatalf("stripe %d: %d column entries for %d users", i, len(st.newest), len(st.users))
		}
		for name, u := range st.users {
			if e := st.newest[u.slot]; e.name != name || e.start != u.lastStart() {
				t.Fatalf("stripe %d: %s at slot %d reads %+v, want start %d", i, name, u.slot, e, u.lastStart())
			}
		}
	}
}

// sinceProbes are the thresholds every column answer is held to: an aligned
// bin start, a sub-second offset past one, pre-epoch ones aligned and not,
// and one past every bin.
var sinceProbes = []time.Time{
	time.Unix(3600, 0),
	time.Unix(3600, 500_000_000),
	time.Unix(-2*3600, 0),
	time.Unix(-2*3600, -1), // a nanosecond before a pre-epoch bin start
	time.Unix(-5*3600+1, 0),
	time.Unix(100*3600, 0),
	time.Unix(-100*3600, 0),
}

// TestNewestColumnMatchesFilter runs random sequences of Add, IngestBatch
// and SetRecords over bins on both sides of the epoch — removals of a user's
// newest bin and of its only bin, whole users deleted and re-created in one
// batch — with pulls at random points, so the column is attached mid-way and
// then kept current by what follows. Every pull, and every probe after the
// sequence, must equal the filtered full export.
func TestNewestColumnMatchesFilter(t *testing.T) {
	for seq := 0; seq < 200; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		h := NewHistogram(time.Hour)
		user := func() string { return fmt.Sprintf("u%d", rng.Intn(8)) }
		at := func() time.Time { return time.Unix(int64(rng.Intn(12*3600))-6*3600, 0) }
		// existing picks one of user's bins, its newest half of the time.
		existing := func(name string) (time.Time, bool) {
			u := h.stripeFor(name).users[name]
			if u == nil {
				return time.Time{}, false
			}
			k := len(u.bins) - 1
			if rng.Intn(2) == 0 {
				k = rng.Intn(len(u.bins))
			}
			return time.Unix(u.bins[k].start, 0), true
		}
		for step := 0; step < 80; step++ {
			switch rng.Intn(6) {
			case 0:
				h.Add(user(), at(), 1+rng.Float64())
			case 1:
				recs := make([]Record, 1+rng.Intn(4))
				for i := range recs {
					recs[i] = Record{User: user(), IntervalStart: at(), CoreSeconds: rng.Float64()*4 - 1}
				}
				h.IngestBatch(recs)
			case 2:
				recs := make([]Record, 1+rng.Intn(4))
				for i := range recs {
					name := user()
					start, ok := existing(name)
					if !ok || rng.Intn(3) == 0 {
						start = at()
					}
					v := 1 + rng.Float64()
					if rng.Intn(2) == 0 {
						v = -rng.Float64() // v ≤ 0 removes
					}
					recs[i] = Record{User: name, IntervalStart: start, CoreSeconds: v}
				}
				h.SetRecords(recs)
			case 3:
				// Delete a user (every bin set to 0) and maybe re-create it
				// in the same batch.
				name := user()
				var recs []Record
				if u := h.stripeFor(name).users[name]; u != nil {
					for _, b := range u.bins {
						recs = append(recs, Record{User: name, IntervalStart: time.Unix(b.start, 0)})
					}
				}
				if rng.Intn(2) == 0 {
					recs = append(recs, Record{User: name, IntervalStart: at(), CoreSeconds: 1})
				}
				h.SetRecords(recs)
			case 4:
				name := user()
				if start, ok := existing(name); ok {
					h.SetBin(name, start, 0)
				}
			case 5:
				probe := sinceProbes[rng.Intn(len(sinceProbes))]
				if got, want := h.RecordsSince("s", probe), filterSince(h, probe); !slices.Equal(got, want) {
					t.Fatalf("seq %d step %d since %v: got %v, want %v", seq, step, probe, got, want)
				}
			}
			checkColumn(t, h)
		}
		for _, probe := range sinceProbes {
			if got, want := h.RecordsSince("s", probe), filterSince(h, probe); !slices.Equal(got, want) {
				t.Fatalf("seq %d since %v: got %v, want %v", seq, probe, got, want)
			}
		}
		checkColumn(t, h)
	}
}

// TestNewestColumnOnlyOnPull: a histogram that never served a pull with a
// non-zero t carries no column — not after ingest, full exports, totals
// passes, a change cursor or a clone — and the first such pull attaches it
// to every stripe.
func TestNewestColumnOnlyOnPull(t *testing.T) {
	h := buildWide(500, 3)
	h.SetRecords([]Record{{User: "user0000001", IntervalStart: t0, CoreSeconds: 0}})
	h.Records("s")
	h.StripeRecords("s", 0)
	h.RecordsSince("s", time.Time{})
	h.DecayedTotals(t0.Add(4*time.Hour), ExponentialHalfLife{HalfLife: time.Hour})
	var c Cursor
	c.Advance([]*Histogram{h}, t0.Add(4*time.Hour), None{})
	clone := h.Clone()
	for _, hist := range []*Histogram{h, clone} {
		for i := range hist.stripes {
			if st := &hist.stripes[i]; st.indexed || st.newest != nil {
				t.Fatalf("stripe %d carries a column before any pull", i)
			}
		}
	}
	h.RecordsSince("s", t0.Add(2*time.Hour))
	for i := range h.stripes {
		if !h.stripes[i].indexed {
			t.Fatalf("stripe %d has no column after a pull", i)
		}
	}
	checkColumn(t, h)
	if n := unsafe.Sizeof(userBins{}); n > 64 {
		t.Errorf("userBins is %d bytes, past its 64-byte size class", n)
	}
}

// TestNewestColumnConcurrentPulls runs pulls beside IngestBatch and
// SetRecords (with removals) from the histogram's first pull on, so the
// column is attached while writers run (meant for -race). Every pull must
// come out sorted and past its threshold, and after the writers stop the
// column must answer exactly the filtered export.
func TestNewestColumnConcurrentPulls(t *testing.T) {
	h := buildWide(300, 2)
	var stop atomic.Bool
	var writers, pullers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				rec := Record{
					User:          fmt.Sprintf("user%07d", rng.Intn(400)),
					IntervalStart: t0.Add(time.Duration(rng.Intn(6)) * time.Hour),
					CoreSeconds:   rng.Float64()*4 - 1,
				}
				if w == 0 {
					h.IngestBatch([]Record{rec})
				} else {
					h.SetRecords([]Record{rec})
				}
			}
		}(w)
	}
	for p := 0; p < 2; p++ {
		pullers.Add(1)
		go func(p int) {
			defer pullers.Done()
			since := t0.Add(time.Duration(p+2) * time.Hour)
			for !stop.Load() {
				recs := h.RecordsSince("s", since)
				for i, r := range recs {
					if r.IntervalStart.Before(since) || i > 0 && recs[i-1].User > r.User {
						t.Errorf("pull since %v: record %d %+v out of place", since, i, r)
						return
					}
				}
			}
		}(p)
	}
	writers.Wait()
	stop.Store(true)
	pullers.Wait()
	checkColumn(t, h)
	for _, probe := range []time.Time{t0.Add(2 * time.Hour), t0.Add(3*time.Hour + time.Second)} {
		if got, want := h.RecordsSince("s", probe), filterSince(h, probe); !slices.Equal(got, want) {
			t.Fatalf("since %v: %d records, want %d", probe, len(got), len(want))
		}
	}
}
