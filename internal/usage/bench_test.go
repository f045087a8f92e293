package usage

import (
	"fmt"
	"testing"
	"time"
)

func buildHistogram(users, binsPerUser int) *Histogram {
	h := NewHistogram(time.Minute)
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user%03d", u)
		for b := 0; b < binsPerUser; b++ {
			h.Add(name, t0.Add(time.Duration(b)*time.Minute), float64(b+1))
		}
	}
	return h
}

// buildWide builds an hour-binned histogram with many users — the shape of
// the scalability benchmarks. Usage arrives in time order (append-mostly).
func buildWide(users, binsPerUser int) *Histogram {
	h := NewHistogram(time.Hour)
	for b := 0; b < binsPerUser; b++ {
		at := t0.Add(time.Duration(b) * time.Hour)
		for u := 0; u < users; u++ {
			h.Add(fmt.Sprintf("user%07d", u), at, float64(b+u+1))
		}
	}
	return h
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(time.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add("user", t0.Add(time.Duration(i%360)*time.Minute), 1)
	}
}

// BenchmarkHistogramAddParallel measures concurrent ingestion across many
// users — the lock-striping win over the old single global RWMutex.
func BenchmarkHistogramAddParallel(b *testing.B) {
	h := NewHistogram(time.Minute)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		user := fmt.Sprintf("user%p", pb) // distinct user per goroutine
		for pb.Next() {
			h.Add(user, t0.Add(time.Duration(i%360)*time.Minute), 1)
			i++
		}
	})
}

func BenchmarkDecayedTotals(b *testing.B) {
	h := buildHistogram(10, 360) // 10 users × 6h of minute bins
	d := ExponentialHalfLife{HalfLife: time.Hour}
	now := t0.Add(7 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DecayedTotals(now, d)
	}
}

// decayedTotalsShapes are the user-count scale points of the pipeline
// benchmarks; bins-per-user shrinks as user count grows to keep setup sane
// while the per-bin/per-user cost split stays visible.
var decayedTotalsShapes = []struct{ users, bins int }{
	{1_000, 96},
	{100_000, 24},
	{1_000_000, 4},
}

// BenchmarkDecayedTotalsExp is the optimized path: O(users) incremental
// exponential totals (one shared scalar advance per pass, no per-bin Exp2).
func BenchmarkDecayedTotalsExp(b *testing.B) {
	for _, sh := range decayedTotalsShapes {
		b.Run(fmt.Sprintf("users=%d", sh.users), func(b *testing.B) {
			h := buildWide(sh.users, sh.bins)
			d := ExponentialHalfLife{HalfLife: 24 * time.Hour}
			now := t0.Add(time.Duration(sh.bins+1) * time.Hour)
			h.DecayedTotals(now, d) // prime: register the tracker
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(h.DecayedTotals(now, d)) != sh.users {
					b.Fatal("short totals")
				}
			}
		})
	}
}

// BenchmarkDecayedTotalsSeedStyle is the pre-optimization baseline: the
// seed's per-user pass (rebuild + sort the key set, one Weight evaluation
// per bin per user). Compare against BenchmarkDecayedTotalsExp at the same
// shape for the pipeline speedup.
func BenchmarkDecayedTotalsSeedStyle(b *testing.B) {
	for _, sh := range decayedTotalsShapes {
		if sh.users > 100_000 {
			continue // the baseline is too slow to be worth CI time at 1M
		}
		b.Run(fmt.Sprintf("users=%d", sh.users), func(b *testing.B) {
			h := buildWide(sh.users, sh.bins)
			d := ExponentialHalfLife{HalfLife: 24 * time.Hour}
			now := t0.Add(time.Duration(sh.bins+1) * time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(seedDecayedTotals(h, now, d)) != sh.users {
					b.Fatal("short totals")
				}
			}
		})
	}
}

func BenchmarkRecordsExport(b *testing.B) {
	h := buildHistogram(10, 360)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.Records("site")) == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkRecordsSinceTail exports a one-bin tail from histograms of
// growing total size. Along bins-per-user (2,000 users, 20 fresh) the
// numbers stay flat: each user's tail is binary-searched. Along the
// population (4 bins per user, 1,750 fresh users: the shape of the bench's
// fed_sparse pulls) a pull costs one int64 comparison per user over the
// newest-bin column plus the exported tail.
func BenchmarkRecordsSinceTail(b *testing.B) {
	run := func(b *testing.B, users, bins, fresh int) {
		h := buildWide(users, bins)
		// A fresh newest bin for a spread of users: the incremental
		// exchange's steady-state tail.
		tail := t0.Add(time.Duration(bins) * time.Hour)
		for u := 0; u < fresh; u++ {
			h.Add(fmt.Sprintf("user%07d", u*(users/fresh)), tail, 1)
		}
		h.RecordsSince("site", tail) // the first pull attaches the column
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(h.RecordsSince("site", tail)) != fresh {
				b.Fatal("wrong tail")
			}
		}
	}
	for _, bins := range []int{12, 96, 384} {
		b.Run(fmt.Sprintf("binsPerUser=%d", bins), func(b *testing.B) { run(b, 2000, bins, 20) })
	}
	for _, users := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) { run(b, users, 4, 1750) })
	}
}

func BenchmarkIngest(b *testing.B) {
	src := buildHistogram(10, 360)
	recs := src.Records("site")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHistogram(time.Minute)
		h.IngestBatch(recs)
	}
}

// BenchmarkIngestBatch measures bulk ingestion throughput (one lock
// acquisition per stripe per batch) at exchange-round sizes.
func BenchmarkIngestBatch(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{
					User:          fmt.Sprintf("user%05d", i%4096),
					IntervalStart: t0.Add(time.Duration(i/4096) * time.Hour),
					CoreSeconds:   float64(i + 1),
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := NewHistogram(time.Hour)
				h.IngestBatch(recs)
			}
		})
	}
}

// BenchmarkSetRecords measures the exchange replacement path (re-fetched
// open intervals overwriting in place).
func BenchmarkSetRecords(b *testing.B) {
	const n = 10_000
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			User:          fmt.Sprintf("user%05d", i%4096),
			IntervalStart: t0.Add(time.Duration(i/4096) * time.Hour),
			CoreSeconds:   float64(i + 1),
		}
	}
	h := NewHistogram(time.Hour)
	h.SetRecords(recs) // steady state: bins exist, overwrites dominate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SetRecords(recs)
	}
}

// BenchmarkMergeSameWidth measures the stripe-aligned sorted merge.
func BenchmarkMergeSameWidth(b *testing.B) {
	src := buildWide(10_000, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewHistogram(time.Hour)
		dst.Merge(src)
	}
}
