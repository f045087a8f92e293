package usage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/par"
)

// twinPool is the user names a FuzzHistogramTwin input picks from: the first
// 64 all fall in par.Stripe's stripe 0, so one stripe's slot table grows
// several times and its slab takes many removals, and the rest spread over
// the other stripes.
var twinPool = func() []string {
	var same, spread []string
	for i := 0; len(same) < 64 || len(spread) < 32; i++ {
		name := fmt.Sprintf("u%d", i)
		if par.Stripe(name, numStripes) == 0 {
			if len(same) < 64 {
				same = append(same, name)
			}
		} else if len(spread) < 32 {
			spread = append(spread, name)
		}
	}
	return append(same, spread...)
}()

// twinModel is the naive histogram: per user, a map from bin start to value.
type twinModel map[string]map[int64]float64

// align floors at to its one-hour bin start, in unix seconds.
func (twinModel) align(at time.Time) int64 {
	s := at.Unix()
	return s - ((s%3600)+3600)%3600
}

func (m twinModel) add(r Record) {
	if r.CoreSeconds <= 0 {
		return
	}
	if m[r.User] == nil {
		m[r.User] = map[int64]float64{}
	}
	m[r.User][m.align(r.IntervalStart)] += r.CoreSeconds
}

func (m twinModel) set(r Record) {
	start := m.align(r.IntervalStart)
	if r.CoreSeconds <= 0 {
		delete(m[r.User], start)
		if len(m[r.User]) == 0 {
			delete(m, r.User)
		}
		return
	}
	if m[r.User] == nil {
		m[r.User] = map[int64]float64{}
	}
	m[r.User][start] = r.CoreSeconds
}

// starts returns user's bin starts, ascending.
func (m twinModel) starts(user string) []int64 {
	var out []int64
	for s := range m[user] {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// since exports every bin starting at or after t, sorted by user then bin.
func (m twinModel) since(t time.Time) []Record {
	var users []string
	for u := range m {
		users = append(users, u)
	}
	slices.Sort(users)
	var out []Record
	for _, u := range users {
		for _, s := range m.starts(u) {
			at := time.Unix(s, 0).UTC()
			if t.IsZero() || !at.Before(t) {
				out = append(out, Record{User: u, Site: "s", IntervalStart: at, CoreSeconds: m[u][s]})
			}
		}
	}
	return out
}

// totals sums each user's bins in start order, weighted by d.
func (m twinModel) totals(now time.Time, d Decay) map[string]float64 {
	out := map[string]float64{}
	for u := range m {
		var sum float64
		for _, s := range m.starts(u) {
			sum += m[u][s] * d.Weight(BinAge(now, time.Unix(s, 0), time.Hour))
		}
		out[u] = sum
	}
	return out
}

// twinReader decodes a FuzzHistogramTwin input.
type twinReader struct{ data []byte }

func (r *twinReader) next() (byte, bool) {
	if len(r.data) == 0 {
		return 0, false
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b, true
}

// instant maps a byte to an instant within ±43 h of t0, on a 20-minute grid,
// so consecutive bytes share a bin or straddle a bin boundary.
func twinInstant(b byte) time.Time {
	return t0.Add(time.Duration(int(b)-128) * 20 * time.Minute)
}

// records decodes a count byte and up to 8 (user, instant, value) triples;
// a value byte of 32 or below is a value ≤ 0: skipped by IngestBatch and a
// removal for SetRecords.
func (r *twinReader) records() []Record {
	n, ok := r.next()
	if !ok {
		return nil
	}
	var out []Record
	for i := 0; i < int(n%8)+1; i++ {
		u, ok1 := r.next()
		at, ok2 := r.next()
		v, ok3 := r.next()
		if !ok1 || !ok2 || !ok3 {
			break
		}
		out = append(out, Record{
			User:          twinPool[int(u)%len(twinPool)],
			IntervalStart: twinInstant(at),
			CoreSeconds:   float64(v)/16 - 2,
		})
	}
	return out
}

// FuzzHistogramTwin holds the histogram to a naive map-of-bins twin. An
// input is a sequence of ops, each an op byte (mod 4) and its operands:
// IngestBatch, SetRecords (values ≤ 0 remove bins, a user's last one
// included), Merge of a histogram built from the operands, and a check at a
// probe instant (odd probes a nanosecond past a 20-minute mark). After every
// op every stripe's slab must hold its users whole (checkColumn: one length
// for every column, each user's kept newest start at its last bin, the slot
// table finding each name at its position and nothing else, every extent
// inside the arena and apart from the others). At a check,
// and after the last op, RecordsSince, Records, the user count and the
// undecayed totals must equal the twin's bit for bit, the half-life totals
// within 1e-9 (the cursor's tracker serves them from incremental sums), and
// a change cursor passed at the probe must keep its follower equal to a
// fresh Full (cursorFollower.check): a user's dirty and marked flags travel
// with it through swap-removes.
//
// The seed corpus under testdata/fuzz/FuzzHistogramTwin removes the last
// and a middle user of one stripe's slab, grows one stripe's slot table from
// 8 to 128 slots, fills one par.Stripe stripe with 64 names and empties it
// again, moves extents, regrows an arena and compacts one at a check's
// cursor pass (TestHistogramTwinCorpusCovers).
func FuzzHistogramTwin(f *testing.F) {
	hl := ExponentialHalfLife{HalfLife: 3 * time.Hour}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHistogram(time.Hour)
		m := twinModel{}
		var follow cursorFollower
		r := &twinReader{data: data}
		for step := 0; step < maxTwinOps; step++ {
			op, ok := r.next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0:
				recs := r.records()
				h.IngestBatch(recs)
				for _, rec := range recs {
					m.add(rec)
				}
			case 1:
				recs := r.records()
				h.SetRecords(recs)
				for _, rec := range recs {
					m.set(rec)
				}
			case 2:
				recs := r.records()
				other := NewHistogram(time.Hour)
				other.IngestBatch(recs)
				h.Merge(other)
				om := twinModel{}
				for _, rec := range recs {
					om.add(rec)
				}
				for u, bins := range om {
					for s, v := range bins {
						m.add(Record{User: u, IntervalStart: time.Unix(s, 0), CoreSeconds: v})
					}
				}
			case 3:
				b, _ := r.next()
				twinCheck(t, h, m, &follow, step, b, hl)
			}
			checkColumn(t, h)
		}
		twinCheck(t, h, m, &follow, -1, byte(len(data)), hl)
	})
}

// twinCheck compares every whole-histogram read of h with the twin m at the
// probe instant b encodes, and passes follow's cursor there.
func twinCheck(t *testing.T, h *Histogram, m twinModel, follow *cursorFollower, step int, b byte, hl Decay) {
	t.Helper()
	probe := twinInstant(b)
	if b%2 == 1 {
		probe = probe.Add(time.Nanosecond)
	}
	if got, want := h.RecordsSince("s", probe), m.since(probe); !slices.Equal(got, want) {
		t.Fatalf("step %d: RecordsSince(%v) = %v, want %v", step, probe, got, want)
	}
	if got, want := h.Records("s"), m.since(time.Time{}); !slices.Equal(got, want) {
		t.Fatalf("step %d: Records = %v, want %v", step, got, want)
	}
	if got, want := h.UserCount(), len(m); got != want {
		t.Fatalf("step %d: %d users, want %d", step, got, want)
	}
	for _, d := range []Decay{None{}, hl} {
		// Without decay a total is the plain sum of the bins. Under the
		// half-life, once the cursor has registered its tracker, clean users
		// are served from incremental sums, within 1e-9 of the per-bin walk.
		tol := 0.0
		if halfLifeOf(d) > 0 {
			tol = expRelTol
		}
		got, want := h.DecayedTotals(probe, d), m.totals(probe, d)
		if len(got) != len(want) {
			t.Fatalf("step %d: %s totals for %d users, want %d", step, d.Name(), len(got), len(want))
		}
		for u, w := range want {
			if g, ok := got[u]; !ok || math.Abs(g-w) > tol*math.Max(math.Abs(w), 1) {
				t.Fatalf("step %d: %s total of %s = %v, want %v", step, d.Name(), u, g, w)
			}
		}
	}
	hists := []*Histogram{h}
	follow.pass(t, hists, probe, hl)
	follow.check(t, fmt.Sprintf("step %d", step), hists, probe, hl)
}

// maxTwinOps bounds the ops of one FuzzHistogramTwin input, so that a long
// input of checks, each a pass over the whole histogram, stays cheap enough
// for the fuzzer to minimize.
const maxTwinOps = 128

// TestHistogramTwinCorpusCovers checks that the committed corpus does what
// FuzzHistogramTwin's doc says, so it cannot rot into inputs that stop short:
// it replays each seed with the fuzzer's decoder, one record at a time and a
// cursor pass at each check, and requires, somewhere in the corpus, a removal
// of a stripe's last user and of a middle one, 64 names in one stripe (whose
// slot table has then grown from 8 slots to 128), an extent that moves to its
// arena's end, an arena regrown with live extents in it, and a cursor pass
// that compacts an arena.
func TestHistogramTwinCorpusCovers(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzHistogramTwin")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	hl := ExponentialHalfLife{HalfLife: 3 * time.Hour}
	var lastOut, middleOut, full, moved, regrown, compacted bool
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		arg, ok := strings.CutPrefix(lines[1], "[]byte(")
		if lines[0] != "go test fuzz v1" || !ok {
			t.Fatalf("%s: not a []byte fuzz corpus file", file.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file.Name(), err)
		}
		h := NewHistogram(time.Hour)
		var c Cursor
		r := &twinReader{data: []byte(data)}
		for {
			op, ok := r.next()
			if !ok {
				break
			}
			if op%4 == 3 {
				b, _ := r.next()
				probe := twinInstant(b)
				if b%2 == 1 {
					probe = probe.Add(time.Nanosecond)
				}
				var arenas [numStripes]*bin
				for i := range h.stripes {
					if st := &h.stripes[i]; len(st.arena) > st.held {
						arenas[i] = unsafe.SliceData(st.arena)
					}
				}
				c.Advance([]*Histogram{h}, probe, hl)
				for i := range h.stripes {
					compacted = compacted || arenas[i] != nil && arenas[i] != unsafe.SliceData(h.stripes[i].arena)
				}
				continue
			}
			for _, rec := range r.records() {
				st := h.stripeFor(rec.User)
				arena, held := unsafe.SliceData(st.arena), st.held
				pos, _, found := st.find(rec.User)
				var before userBins
				if found {
					before = st.users[pos]
				}
				if op%4 != 1 {
					h.IngestBatch([]Record{rec})
				} else {
					if found && rec.CoreSeconds <= 0 && before.n == 1 && st.binsAt(int(pos))[0].start == h.AlignStart(rec.IntervalStart) {
						lastOut = lastOut || int(pos) == len(st.names)-1
						middleOut = middleOut || int(pos) < len(st.names)-1
					}
					h.SetRecords([]Record{rec})
				}
				regrown = regrown || held > 0 && arena != unsafe.SliceData(st.arena)
				moved = moved || found && rec.CoreSeconds > 0 && arena == unsafe.SliceData(st.arena) && st.users[pos].off != before.off
			}
			full = full || len(h.stripes[0].names) >= 64
		}
	}
	if !lastOut || !middleOut || !full || !moved || !regrown || !compacted {
		t.Fatalf("corpus covers: last user removed %v, middle user removed %v, 64 names in one stripe %v, "+
			"an extent moved %v, an arena regrown %v, a pass compacted %v",
			lastOut, middleOut, full, moved, regrown, compacted)
	}
}
