package usage

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// isDirty reports whether user's sum is flagged dirty. Any lock on st held.
func (st *stripe) isDirty(user string) bool {
	pos, _, ok := st.find(user)
	return ok && st.flags[pos]&dirty != 0
}

// sumOf returns user's incremental sum, 0 for a user without bins. Any lock
// on st held.
func (st *stripe) sumOf(user string) float64 {
	if pos, _, ok := st.find(user); ok {
		return st.users[pos].sum
	}
	return 0
}

// TestHistogramBytesPerUser pins what a user costs in use: 250,000 users ×
// 2 bins (a quarter of refresh_1m's population, so each of the 64 stripes
// sits at the same point of its growth as there) measured after one cursor
// pass and runtime.GC(), the names held outside the histogram. A user is one
// slab element (16 B), its name header, its newest start, its flags byte, its
// share of the slot table and of the columns' growth room, and its 2-bin
// extent in the stripe's arena (32 B, plus the sixteenth of spare room a
// pass leaves): ≈94 B, against 107 B when each user's bins were a heap
// object of their own and 136 B when each stripe was a map of per-user heap
// objects. The histogram holds a few heap objects per stripe and none per
// user.
func TestHistogramBytesPerUser(t *testing.T) {
	if n := unsafe.Sizeof(userBins{}); n > 16 {
		t.Errorf("userBins is %d bytes, past 16", n)
	}
	const users = 250_000
	names := make([]string, users)
	for u := range names {
		names[u] = fmt.Sprintf("user%07d", u)
	}
	recs := make([]Record, 0, 2*users)
	for b := 0; b < 2; b++ {
		for _, name := range names {
			recs = append(recs, Record{User: name, IntervalStart: t0.Add(time.Duration(b) * time.Hour), CoreSeconds: 1})
		}
	}
	objects := []metrics.Sample{{Name: "/gc/heap/objects:objects"}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	metrics.Read(objects)
	objectsBefore := objects[0].Value.Uint64()
	h := NewHistogram(time.Hour)
	for i := 0; i < len(recs); i += 4096 {
		h.IngestBatch(recs[i:min(i+4096, len(recs))])
	}
	attach(h, t0.Add(2*time.Hour), ExponentialHalfLife{HalfLife: 24 * time.Hour})
	runtime.GC()
	runtime.ReadMemStats(&after)
	metrics.Read(objects)
	perUser := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / users
	objectsPerUser := (float64(objects[0].Value.Uint64()) - float64(objectsBefore)) / users
	runtime.KeepAlive(h)
	runtime.KeepAlive(names)
	runtime.KeepAlive(recs)
	if perUser > 103 {
		t.Errorf("the histogram holds %.1f bytes per user in use, want ≤ 103", perUser)
	}
	if objectsPerUser > 0.01 {
		t.Errorf("the histogram holds %.3f heap objects per user, want ≤ 0.01", objectsPerUser)
	}
	t.Logf("%.1f bytes and %.4f heap objects per user in use", perUser, objectsPerUser)
}

// TestCompactedArenaMatchesFresh builds BenchmarkIngestBatch's shape, 4,096
// users × 25 round-robin bins in one batch (so every user moves to its
// arena's end time and again and every arena regrows), under a registered
// tracker, and passes the cursor; then removes the fourth bin of every third
// user and every bin of every 64th user, and passes the cursor again, which
// compacts the stripes, quiet now, that the moves and removals left dead
// bins in. Records, the plain and the half-life
// DecayedTotals and the cursor's follower must then equal, bit for bit,
// those of a fresh histogram that ingested the final records and whose
// cursor passed at the same instants.
func TestCompactedArenaMatchesFresh(t *testing.T) {
	const users, bins = 4096, 25
	hl := ExponentialHalfLife{HalfLife: 24 * time.Hour}
	now := t0.Add(30 * time.Hour)
	name := func(u int) string { return fmt.Sprintf("user%05d", u) }
	h := NewHistogram(time.Hour)
	hists := []*Histogram{h}
	var follow cursorFollower
	follow.pass(t, hists, t0, hl) // registers the tracker at t0
	recs := make([]Record, 0, users*bins)
	for b := 0; b < bins; b++ {
		for u := 0; u < users; u++ {
			recs = append(recs, Record{User: name(u), IntervalStart: t0.Add(time.Duration(b) * time.Hour), CoreSeconds: float64(b*users + u + 1)})
		}
	}
	h.IngestBatch(recs)
	follow.pass(t, hists, t0.Add(26*time.Hour), hl) // the stripes are still growing: no trim
	var removals []Record
	for u := 0; u < users; u++ {
		switch {
		case u%64 == 0:
			for b := 0; b < bins; b++ {
				removals = append(removals, Record{User: name(u), IntervalStart: t0.Add(time.Duration(b) * time.Hour)})
			}
		case u%3 == 0:
			removals = append(removals, Record{User: name(u), IntervalStart: t0.Add(3 * time.Hour)})
		}
	}
	h.SetRecords(removals)
	var dead [numStripes]*bin
	for i := range h.stripes {
		if st := &h.stripes[i]; len(st.arena) > st.held {
			dead[i] = unsafe.SliceData(st.arena)
		}
	}
	follow.pass(t, hists, now, hl)
	compacted := 0
	for i := range h.stripes {
		if dead[i] != nil && dead[i] != unsafe.SliceData(h.stripes[i].arena) {
			compacted++
		}
	}
	if compacted == 0 {
		t.Fatal("the cursor pass compacted no stripe")
	}
	checkColumn(t, h)

	fresh := NewHistogram(time.Hour)
	fresh.IngestBatch(h.Records("s"))
	var c Cursor
	c.Advance([]*Histogram{fresh}, t0, hl)
	c.Advance([]*Histogram{fresh}, now, hl)
	if got, want := h.Records("s"), fresh.Records("s"); !slices.Equal(got, want) {
		t.Fatalf("%d records after the compaction, a fresh histogram has %d", len(got), len(want))
	}
	for _, d := range []Decay{None{}, hl} {
		got, want := h.DecayedTotals(now, d), fresh.DecayedTotals(now, d)
		if len(got) != len(want) {
			t.Fatalf("%s totals for %d users, a fresh histogram has %d", d.Name(), len(got), len(want))
		}
		for u, w := range want {
			if g := got[u]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s total of %s is %v, a fresh histogram's %v", d.Name(), u, g, w)
			}
		}
	}
	full, ok := c.Sums([]*Histogram{fresh}, now)
	if !ok || len(full.Totals) != len(follow.acc) {
		t.Fatalf("follower holds %d users, a fresh cursor %d (%v)", len(follow.acc), len(full.Totals), ok)
	}
	for u, w := range full.Totals {
		if g := follow.acc[u]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("follower holds %v for %s, a fresh cursor %v", g, u, w)
		}
	}
	follow.check(t, "after the compaction", hists, now, hl)
}
