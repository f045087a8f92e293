package usage

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// isDirty reports whether user's sum is flagged dirty. Any lock on st held.
func (st *stripe) isDirty(user string) bool {
	pos, _, ok := st.find(user)
	return ok && st.flags[pos]&dirty != 0
}

// TestHistogramBytesPerUser pins what a user costs in use: 250,000 users ×
// 2 bins (a quarter of refresh_1m's population, so each of the 64 stripes
// sits at the same point of its growth as there) measured after
// runtime.GC(), the names held outside the histogram. A user is one slab
// element (32 B), its name header, its newest start, its flags byte and its
// share of the slot table and of the columns' growth room, plus the 32 B of
// its two bins: ≈107 B, against 136 B when each stripe was a map of
// per-user heap objects.
func TestHistogramBytesPerUser(t *testing.T) {
	if n := unsafe.Sizeof(userBins{}); n > 32 {
		t.Errorf("userBins is %d bytes, past 32", n)
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
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHistogram(time.Hour)
	for i := 0; i < len(recs); i += 4096 {
		h.IngestBatch(recs[i:min(i+4096, len(recs))])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perUser := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / users
	runtime.KeepAlive(h)
	runtime.KeepAlive(names)
	runtime.KeepAlive(recs)
	if perUser > 117 {
		t.Errorf("the histogram holds %.1f bytes per user in use, want ≤ 117", perUser)
	}
	t.Logf("%.1f bytes per user in use", perUser)
}
