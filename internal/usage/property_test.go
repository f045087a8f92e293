package usage

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPropertyRecordsIngestRoundTrip(t *testing.T) {
	// Exporting a histogram as compact records and ingesting them into a
	// fresh histogram preserves every user's total exactly.
	f := func(adds []struct {
		User   uint8
		Offset uint32
		Amount uint16
	}) bool {
		h := NewHistogram(time.Hour)
		for _, a := range adds {
			user := string(rune('a' + a.User%6))
			at := t0.Add(time.Duration(a.Offset%100000) * time.Second)
			h.Add(user, at, float64(a.Amount)+1)
		}
		h2 := NewHistogram(time.Hour)
		h2.IngestBatch(h.Records("s"))
		for _, u := range h.Users() {
			if math.Abs(h.Total(u)-h2.Total(u)) > 1e-9 {
				return false
			}
		}
		return len(h.Users()) == len(h2.Users())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecayedNeverExceedsTotal(t *testing.T) {
	f := func(adds []struct {
		Offset uint32
		Amount uint16
	}, hlSeconds uint32) bool {
		h := NewHistogram(time.Minute)
		for _, a := range adds {
			h.Add("u", t0.Add(time.Duration(a.Offset%100000)*time.Second), float64(a.Amount)+1)
		}
		d := ExponentialHalfLife{HalfLife: time.Duration(hlSeconds%100000+1) * time.Second}
		now := t0.Add(200000 * time.Second)
		dec := h.DecayedTotal("u", now, d)
		tot := h.Total("u")
		return dec >= 0 && dec <= tot+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergePreservesSums(t *testing.T) {
	f := func(a, b []struct {
		User   uint8
		Amount uint16
	}) bool {
		ha := NewHistogram(time.Hour)
		hb := NewHistogram(time.Hour)
		want := map[string]float64{}
		for _, x := range a {
			u := string(rune('a' + x.User%4))
			ha.Add(u, t0, float64(x.Amount)+1)
			want[u] += float64(x.Amount) + 1
		}
		for _, x := range b {
			u := string(rune('a' + x.User%4))
			hb.Add(u, t0, float64(x.Amount)+1)
			want[u] += float64(x.Amount) + 1
		}
		ha.Merge(hb)
		for u, w := range want {
			if math.Abs(ha.Total(u)-w) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAddSpreadConservesUsage(t *testing.T) {
	// Spreading a job across bins conserves total core-seconds exactly
	// (within float tolerance), whatever the alignment.
	f := func(startOff uint32, durSec uint32, procs uint8) bool {
		h := NewHistogram(37 * time.Minute) // awkward width on purpose
		start := t0.Add(time.Duration(startOff%1000000) * time.Second)
		dur := time.Duration(durSec%500000+1) * time.Second
		p := int(procs%7) + 1
		h.AddSpread("u", start, dur, p)
		want := dur.Seconds() * float64(p)
		got := h.Total("u")
		return math.Abs(got-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
