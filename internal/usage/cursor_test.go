package usage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/par"
)

// cursorFollower is what a consumer of a Cursor keeps: the last complete
// sums overwritten with every change set since.
type cursorFollower struct {
	c     Cursor
	acc   map[string]float64
	fulls int
	dirty []int // len(Changed) of every sparse pass
}

func (f *cursorFollower) pass(t *testing.T, hists []*Histogram, now time.Time, d Decay) DeltaSet {
	t.Helper()
	ds := f.c.Advance(hists, now, d)
	if ds.Full {
		full, ok := f.c.Sums(hists, now)
		if !ok {
			t.Fatalf("Sums refused right after a Full pass at %v", now)
		}
		f.acc = map[string]float64{}
		for u, v := range full.Totals {
			f.acc[u] = v
		}
		f.fulls++
		return ds
	}
	for u, v := range ds.Changed {
		if v == 0 {
			delete(f.acc, u)
		} else {
			f.acc[u] = v
		}
	}
	f.dirty = append(f.dirty, len(ds.Changed))
	return ds
}

// check requires the accumulated deltas to equal a fresh Full at the same
// instant bit for bit, and value × scale to match the naive per-bin totals.
func (f *cursorFollower) check(t *testing.T, ctx string, hists []*Histogram, now time.Time, d Decay) {
	t.Helper()
	full, ok := f.c.Sums(hists, now)
	if !ok {
		t.Fatalf("%s: Sums refused after a pass", ctx)
	}
	for u, v := range full.Totals {
		if v == 0 {
			delete(full.Totals, u) // a user left with nothing is as good as gone
		}
	}
	if len(f.acc) != len(full.Totals) {
		t.Fatalf("%s: accumulated %d users, fresh Full has %d", ctx, len(f.acc), len(full.Totals))
	}
	naive := map[string]float64{}
	for _, h := range hists {
		for u, v := range seedDecayedTotals(h, now, d) {
			naive[u] += v
		}
	}
	for u, want := range full.Totals {
		got, ok := f.acc[u]
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: user %s accumulated %v (present %v), fresh Full %v", ctx, u, got, ok, want)
		}
		decayed, ref := got*full.Scale, naive[u]
		if math.Abs(decayed-ref) > expRelTol*math.Max(math.Abs(ref), 1) {
			t.Fatalf("%s: user %s value×scale = %v, naive per-bin total %v", ctx, u, decayed, ref)
		}
	}
}

// TestCursorFollowsRandomInterleavings drives random mixes of local job
// spreads, remote overwrites (growing, shrinking, removing, unchanged),
// future bins, clock steps across bin starts and midpoints, a forced rebase,
// a decay that goes to None and back, and totals reads at other half-lives
// and past the rebase horizon through a three-histogram cursor, and after
// every pass requires the accumulated deltas to equal a fresh Full at the
// same instant under Float64bits, with value × scale within 1e-9 of the
// naive totals.
func TestCursorFollowsRandomInterleavings(t *testing.T) {
	for _, d := range []Decay{
		ExponentialHalfLife{HalfLife: 36 * time.Hour},
		ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour},
		None{},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			d, seed := d, seed
			t.Run(fmt.Sprintf("%s/seed=%d", d.Name(), seed), func(t *testing.T) {
				runCursorInterleaving(t, d, seed)
			})
		}
	}
}

func runCursorInterleaving(t *testing.T, d Decay, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	hists := []*Histogram{NewHistogram(time.Hour), NewHistogram(time.Hour), NewHistogram(time.Hour)}
	users := make([]string, 40)
	for i := range users {
		users[i] = fmt.Sprintf("u%02d", i)
	}
	now := t0
	f := &cursorFollower{}
	// remote[h][user][bin] mirrors what the remote histograms hold, so
	// overwrites can grow, shrink or repeat the stored value on purpose.
	remote := []map[string]map[time.Time]float64{nil, {}, {}}
	hl := halfLifeOf(d)
	sawFull := map[string]bool{}

	for step := 0; step < 250; step++ {
		for burst := 1 + rng.Intn(4); burst > 0; burst-- {
			u := users[rng.Intn(len(users))]
			at := now.Add(-time.Duration(rng.Intn(72*60)) * time.Minute)
			if rng.Intn(6) == 0 {
				at = now.Add(time.Duration(rng.Intn(150)) * time.Minute) // a bin ahead of now
			}
			switch k := rng.Intn(3); k {
			case 0:
				hists[0].AddSpread(u, at, time.Duration(1+rng.Intn(180))*time.Minute, 1+rng.Intn(8))
			default:
				bin := at.Truncate(time.Hour)
				if remote[k][u] == nil {
					remote[k][u] = map[time.Time]float64{}
				}
				v := remote[k][u][bin]
				switch rng.Intn(5) {
				case 0:
					v = 0 // remove the bin
				case 1:
					v *= 0.5 // shrinking overwrite
				case 2: // the value already stored: not a change
				default:
					v += float64(1 + rng.Intn(5000))
				}
				remote[k][u][bin] = v
				hists[k].SetRecords([]Record{{User: u, Site: "r", IntervalStart: bin, CoreSeconds: v}})
			}
		}
		// Clock: mostly a few minutes, so passes fall on both sides of bin
		// starts and midpoints; now and then hours.
		now = now.Add(time.Duration(1+rng.Intn(25)) * time.Minute)
		if rng.Intn(15) == 0 {
			now = now.Add(time.Duration(rng.Intn(6)) * time.Hour)
		}
		ctx := fmt.Sprintf("step %d at %v", step, now)
		switch step {
		case 100:
			if hl > 0 { // past the conditioning bound: the reference must move
				now = now.Add(time.Duration(rebaseHalfLives+1) * hl)
				if ds := f.pass(t, hists, now, d); !ds.Full {
					t.Fatalf("%s: pass after %v of silence was not Full", ctx, now.Sub(t0))
				}
				sawFull["rebase"] = true
				f.check(t, ctx, hists, now, d)
				continue
			}
		case 180, 181:
			if hl > 0 { // the decay goes to None and back: both passes are Full
				dd := Decay(None{})
				if step == 181 {
					dd = d
				}
				if ds := f.pass(t, hists, now, dd); !ds.Full {
					t.Fatalf("%s: pass under %s after a change of decay was not Full", ctx, dd.Name())
				}
				sawFull["decay "+dd.Name()] = true
				f.check(t, ctx, hists, now, dd)
				continue
			}
		}
		if rng.Intn(4) == 0 {
			// Plain reads between passes, at any half-life and any instant,
			// must not consume or move anything.
			hists[rng.Intn(3)].DecayedTotals(now, d)
			hists[rng.Intn(3)].DecayedTotals(now.Add(time.Duration(rebaseHalfLives+1)*max(hl, time.Hour)), ExponentialHalfLife{HalfLife: hl + time.Minute})
			hists[0].DecayedTotal(users[0], now, d)
		}
		f.pass(t, hists, now, d)
		f.check(t, ctx, hists, now, d)
	}
	if f.fulls != 1+len(sawFull) {
		t.Errorf("%d Full passes, want the first plus %v", f.fulls, sawFull)
	}
	if len(f.dirty) == 0 {
		t.Fatal("no sparse pass")
	}
}

// TestCursorUnchangedOverwritesAreNotChanges: an exchange re-pulls the open
// and previous bin every round; writing back what is stored must not list
// anyone, and neither must a plain totals read at any half-life.
func TestCursorUnchangedOverwritesAreNotChanges(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	h := NewHistogram(time.Hour)
	var recs []Record
	for i := 0; i < 200; i++ {
		recs = append(recs, Record{User: fmt.Sprintf("u%03d", i), IntervalStart: t0.Add(-2 * time.Hour), CoreSeconds: float64(100 + i)})
	}
	h.SetRecords(recs)
	hists := []*Histogram{h}
	now := t0
	f := &cursorFollower{}
	f.pass(t, hists, now, d)

	for round := 0; round < 3; round++ {
		now = now.Add(time.Minute)
		h.SetRecords(recs) // the re-pull
		checkClose(t, "probe", h.DecayedTotals(now, d), seedDecayedTotals(h, now, d), expRelTol)
		h.DecayedTotals(now, ExponentialHalfLife{HalfLife: time.Hour})
		if ds := f.pass(t, hists, now, d); ds.Full || len(ds.Changed) != 0 {
			t.Fatalf("round %d: unchanged overwrites listed %d users (full=%v)", round, len(ds.Changed), ds.Full)
		}
	}
	recs[7].CoreSeconds++
	h.SetRecords(recs)
	now = now.Add(time.Minute)
	if ds := f.pass(t, hists, now, d); ds.Full || len(ds.Changed) != 1 {
		t.Fatalf("one real change listed %d users (full=%v)", len(ds.Changed), ds.Full)
	}
	f.check(t, "after one change", hists, now, d)
}

// TestCursorReadBetweenPassesChangesNothing: the cursor pass is the one
// writer of the incremental sums, so a totals read between two Advances — at
// the cursor's half-life, at another, without decay, or at a `now` past the
// rebase horizon — leaves the next DeltaSet and Sums bit-identical to those
// of a twin that saw no read. Between the passes one user's sum goes dirty
// (a shrinking overwrite, which only the pass re-seeds), one folds a delta
// and one gains a bin ahead of the clock.
func TestCursorReadBetweenPassesChangesNothing(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: 24 * time.Hour}
	build := func() []*Histogram {
		local, mirror := NewHistogram(time.Hour), NewHistogram(time.Hour)
		for i := 0; i < 30; i++ {
			u := fmt.Sprintf("u%02d", i)
			addOne(local, u, t0.Add(-time.Duration(i+1)*time.Hour), float64(100+i))
			setOne(mirror, u, t0.Add(-time.Duration(2*i+1)*time.Hour), float64(10*i+5))
		}
		return []*Histogram{local, mirror}
	}
	for _, rd := range []struct {
		name string
		now  time.Time
		d    Decay
	}{
		{"cursor half-life", t0.Add(10 * time.Minute), d},
		{"other half-life", t0.Add(10 * time.Minute), ExponentialHalfLife{HalfLife: time.Hour}},
		{"no decay", t0.Add(10 * time.Minute), None{}},
		{"past the rebase horizon", t0.Add(time.Duration(rebaseHalfLives+3) * d.HalfLife), d},
	} {
		hists, twin := build(), build()
		var c, tc Cursor
		c.Advance(hists, t0, d)
		tc.Advance(twin, t0, d)
		for _, hs := range [][]*Histogram{hists, twin} {
			setOne(hs[1], "u03", t0.Add(-7*time.Hour), 1) // shrinks: dirty
			addOne(hs[0], "u05", t0.Add(-30*time.Minute), 40)
			addOne(hs[0], "u07", t0.Add(90*time.Minute), 60)
		}
		for _, h := range hists {
			h.DecayedTotals(rd.now, rd.d)
		}
		if st := hists[1].stripeFor("u03"); !st.users["u03"].exp.dirty {
			t.Fatalf("%s: a read re-seeded a dirty sum", rd.name)
		}
		now := t0.Add(20 * time.Minute)
		got, want := c.Advance(hists, now, d), tc.Advance(twin, now, d)
		if got.Full || len(got.Changed) != 3 {
			t.Fatalf("%s: full=%v changed=%v, want the three mutated users", rd.name, got.Full, got.Changed)
		}
		sameDeltaSet(t, rd.name+": Advance", got, want)
		gotSums, ok := c.Sums(hists, now)
		wantSums, twinOK := tc.Sums(twin, now)
		if !ok || !twinOK {
			t.Fatalf("%s: Sums refused after a pass (ok=%v, twin ok=%v)", rd.name, ok, twinOK)
		}
		sameDeltaSet(t, rd.name+": Sums", gotSums, wantSums)
	}
}

// sameDeltaSet requires two change sets to agree bit for bit.
func sameDeltaSet(t *testing.T, ctx string, got, want DeltaSet) {
	t.Helper()
	if got.Full != want.Full || math.Float64bits(got.Scale) != math.Float64bits(want.Scale) ||
		!got.Reference.Equal(want.Reference) || got.Users != want.Users ||
		len(got.Changed) != len(want.Changed) || len(got.Totals) != len(want.Totals) {
		t.Fatalf("%s: %+v, twin %+v", ctx, got, want)
	}
	for _, m := range []struct{ got, want map[string]float64 }{{got.Changed, want.Changed}, {got.Totals, want.Totals}} {
		for u, w := range m.want {
			if g, ok := m.got[u]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: user %s: %v (present %v), twin %v", ctx, u, g, ok, w)
			}
		}
	}
}

// TestCursorClampedUsersAreReEmittedUntilTheClampLifts pins the clamp rule:
// a user whose newest bin starts after `now` is listed on every pass and
// once more on the pass after the bin has started, then goes quiet — on
// both sides of that bin's midpoint.
func TestCursorClampedUsersAreReEmittedUntilTheClampLifts(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	h := NewHistogram(time.Hour)
	addOne(h, "old", t0.Add(-5*time.Hour), 100)
	hists := []*Histogram{h}
	f := &cursorFollower{}
	f.pass(t, hists, t0, d)

	addOne(h, "ahead", t0.Add(65*time.Minute), 3600) // bin [t0+1h, t0+2h)
	var listed []int
	for _, min := range []int{6, 12, 59, 61, 70, 100} {
		now := t0.Add(time.Duration(min) * time.Minute)
		ds := f.pass(t, hists, now, d)
		if ds.Full {
			t.Fatalf("minute %d: Full", min)
		}
		if _, ok := ds.Changed["old"]; ok {
			t.Fatalf("minute %d: untouched user listed", min)
		}
		listed = append(listed, len(ds.Changed))
		f.check(t, fmt.Sprintf("minute %d", min), hists, now, d)
	}
	if want := []int{1, 1, 1, 1, 0, 0}; fmt.Sprint(listed) != fmt.Sprint(want) {
		t.Fatalf("user ahead of the clock listed %v times per pass, want %v", listed, want)
	}
}

// TestCursorOpenBinUserIsEmittedOnce: a completion in the open bin is
// emitted when it arrives and never because the clock moved — passes with no
// mutation in between return an empty change set on either side of the bin
// midpoint. (Such a user used to be re-emitted on every pass of the bin's
// first half.) The value emitted is the tracker's sum from the first pass
// on, which is what was emitted from the midpoint on before, and it stays
// within 1e-9 of the per-bin walk at every instant.
func TestCursorOpenBinUserIsEmittedOnce(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	h := NewHistogram(time.Hour)
	addOne(h, "old", t0.Add(-5*time.Hour), 100)
	hists := []*Histogram{h}
	f := &cursorFollower{}
	f.pass(t, hists, t0, d)

	addOne(h, "open", t0.Add(5*time.Minute), 3600) // midpoint at t0+30m
	for i, min := range []int{6, 12, 29, 30, 31, 50} {
		now := t0.Add(time.Duration(min) * time.Minute)
		ds := f.pass(t, hists, now, d)
		if want := map[bool]int{true: 1, false: 0}[i == 0]; ds.Full || len(ds.Changed) != want {
			t.Fatalf("minute %d: full=%v changed=%v, want %d listed", min, ds.Full, ds.Changed, want)
		}
		if got, sum := f.acc["open"], h.stripeFor("open").users["open"].exp.sum; math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("minute %d: follower holds %v, tracker sum %v", min, got, sum)
		}
		f.check(t, fmt.Sprintf("minute %d", min), hists, now, d)
	}
}

// TestCursorSecondHalfLifeReRegistersTheTracker: a histogram keeps one
// tracker, the one of its cursor's decay. A pass under a second half-life
// registers a new tracker in its place (a read under the first is then the
// per-bin walk), a pass without decay drops it, and a pass back under the
// first half-life registers it again. Each of those passes is Full, and its
// Sums equal, bit for bit, those of a histogram that only ever saw that
// decay.
func TestCursorSecondHalfLifeReRegistersTheTracker(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	other := ExponentialHalfLife{HalfLife: 24 * time.Hour}
	h := NewHistogram(time.Hour)
	for i := 0; i < 50; i++ {
		u := fmt.Sprintf("u%02d", i)
		addOne(h, u, t0.Add(-time.Duration(i+1)*time.Hour), float64(100+i))
		addOne(h, u, t0.Add(-time.Duration(3*i+2)*time.Hour), float64(7*i+1))
	}
	hists := []*Histogram{h}
	var c Cursor
	if _, ok := c.Sums(hists, t0); ok {
		t.Error("Sums served before any pass")
	}
	if ds := c.Advance(hists, t0, d); !ds.Full {
		t.Fatal("first pass was not Full")
	}
	addOne(h, "u07", t0.Add(-20*time.Minute), 40)
	now := t0.Add(40 * time.Minute)
	if ds := c.Advance(hists, now, d); ds.Full || len(ds.Changed) != 1 {
		t.Fatalf("steady pass: full=%v changed=%d, want one sparse change", ds.Full, len(ds.Changed))
	}

	for _, dd := range []Decay{other, None{}, d} {
		addOne(h, "u09", now.Add(-10*time.Minute), 5)
		now = now.Add(time.Minute)
		ds := c.Advance(hists, now, dd)
		if !ds.Full {
			t.Fatalf("pass under %v was not Full", dd)
		}
		if hl := halfLifeOf(dd); hl == 0 && h.tracker != nil {
			t.Fatalf("tracker %+v kept by a pass without decay", h.tracker)
		} else if hl > 0 && (h.tracker == nil || h.tracker.halfLife != hl || !h.tracker.ref.Equal(ds.Reference)) {
			t.Fatalf("tracker = %+v, want %v registered at %v", h.tracker, hl, ds.Reference)
		}
		if dd == Decay(other) {
			checkClose(t, "untracked half-life", h.DecayedTotals(now, d), seedDecayedTotals(h, now, d), 0)
		}
		got, ok := c.Sums(hists, now)
		// The twin is read at the same reference instant and never sees
		// another decay.
		twin := []*Histogram{h.Clone()}
		var tc Cursor
		tc.Advance(twin, ds.Reference, dd)
		want, twinOK := tc.Sums(twin, now)
		if !ok || !twinOK || len(got.Totals) != len(want.Totals) || len(want.Totals) != 50 {
			t.Fatalf("%v: Sums ok=%v users=%d, twin ok=%v users=%d", dd, ok, len(got.Totals), twinOK, len(want.Totals))
		}
		for u, w := range want.Totals {
			if g := got.Totals[u]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v: user %s: re-registered sum %v, fresh histogram %v", dd, u, g, w)
			}
		}
	}
}

// TestCursorMajorityChangeIsFull: the cursor is the one place that decides a
// change set is too large to hand on. On a population large enough for the
// dirty share to apply, half the users changed is still a delta and two
// thirds is a Full set that lists nobody, whose Sums carry the new values.
func TestCursorMajorityChangeIsFull(t *testing.T) {
	d := ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour}
	const n = par.Threshold
	h := NewHistogram(time.Hour)
	for i := 0; i < n; i++ {
		addOne(h, fmt.Sprintf("u%04d", i), t0.Add(-5*time.Hour), 100)
	}
	hists := []*Histogram{h}
	f := &cursorFollower{}
	f.pass(t, hists, t0, d)

	now := t0
	for _, tc := range []struct {
		changed int
		full    bool
	}{{n / 2, false}, {2 * n / 3, true}} {
		for i := 0; i < tc.changed; i++ {
			addOne(h, fmt.Sprintf("u%04d", i), now.Add(-2*time.Hour), 10)
		}
		now = now.Add(time.Minute)
		ds := f.pass(t, hists, now, d)
		if ds.Full != tc.full {
			t.Fatalf("%d of %d users changed: full=%v, want %v", tc.changed, n, ds.Full, tc.full)
		}
		if want := map[bool]int{false: tc.changed, true: 0}[tc.full]; len(ds.Changed) != want {
			t.Fatalf("%d of %d users changed: %d listed, want %d", tc.changed, n, len(ds.Changed), want)
		}
		f.check(t, fmt.Sprintf("%d changed", tc.changed), hists, now, d)
	}
}

// TestDeltaPays pins the two measured constants.
func TestDeltaPays(t *testing.T) {
	for _, tc := range []struct {
		changed, users int
		want           bool
	}{
		{400, 500, true},      // below the parallel-rebuild size nothing is too large
		{10000, 20000, true},  // half
		{10001, 20000, false}, // past half
		{100, 1000000, true},  // the sparse case
		{600000, 1000000, false},
	} {
		if got := DeltaPays(tc.changed, tc.users); got != tc.want {
			t.Errorf("DeltaPays(%d, %d) = %v, want %v", tc.changed, tc.users, got, tc.want)
		}
	}
}
