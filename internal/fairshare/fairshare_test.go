package fairshare

import (
	"math"
	"testing"

	"repro/internal/policy"
	"repro/internal/vector"
)

func flatPolicy(t *testing.T, shares map[string]float64) *policy.Tree {
	t.Helper()
	p, err := policy.FromShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// figure3Policy builds a three-level hierarchy similar to Figure 3.
func figure3Policy(t *testing.T) *policy.Tree {
	t.Helper()
	p := policy.NewTree()
	must := func(_ string, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Add("", "hq", 0.3))
	must(p.Add("", "lq", 0.1))
	must(p.Add("", "grid", 0.6))
	must(p.Add("/grid", "projA", 0.75))
	must(p.Add("/grid", "projB", 0.25))
	must(p.Add("/grid/projA", "u1", 0.25))
	must(p.Add("/grid/projA", "u2", 0.75))
	must(p.Add("/grid/projB", "u3", 1.0))
	return p
}

func TestBalancedUsersSitAtBalancePoint(t *testing.T) {
	p := flatPolicy(t, map[string]float64{"a": 0.5, "b": 0.5})
	ft := Compute(p, map[string]float64{"a": 100, "b": 100}, DefaultConfig())
	for _, u := range []string{"a", "b"} {
		v, ok := ft.Vector(u)
		if !ok {
			t.Fatalf("no vector for %s", u)
		}
		if math.Abs(v[0]-5000) > 1e-9 {
			t.Errorf("%s value = %g, want balance 5000", u, v[0])
		}
		pr, _ := ft.LeafPriority(u)
		if math.Abs(pr) > 1e-12 {
			t.Errorf("%s priority = %g, want 0", u, pr)
		}
	}
}

func TestUnderUserRanksAboveOverUser(t *testing.T) {
	p := flatPolicy(t, map[string]float64{"under": 0.5, "over": 0.5})
	ft := Compute(p, map[string]float64{"under": 10, "over": 90}, DefaultConfig())
	vu, _ := ft.Vector("under")
	vo, _ := ft.Vector("over")
	if vu[0] <= 5000 || vo[0] >= 5000 {
		t.Errorf("values: under=%g over=%g", vu[0], vo[0])
	}
	pu, _ := ft.LeafPriority("under")
	po, _ := ft.LeafPriority("over")
	if pu <= 0 || po >= 0 {
		t.Errorf("priorities: under=%g over=%g", pu, po)
	}
}

func TestZeroUsageMaxPriority(t *testing.T) {
	// The bursty-test bound: share 0.12, k 0.5 → max priority
	// 0.5·(1+0.12)=0.56, reached when the user has no usage at all while
	// others consume.
	p := flatPolicy(t, map[string]float64{"u3": 0.12, "rest": 0.88})
	ft := Compute(p, map[string]float64{"u3": 0, "rest": 1000}, DefaultConfig())
	pr, ok := ft.LeafPriority("u3")
	if !ok {
		t.Fatal("u3 missing")
	}
	if math.Abs(pr-0.56) > 1e-12 {
		t.Errorf("u3 priority = %g, want 0.56", pr)
	}
	if got := MaxPriority(DefaultConfig(), 0.12); math.Abs(got-0.56) > 1e-12 {
		t.Errorf("MaxPriority = %g", got)
	}
	if pr > MaxPriority(DefaultConfig(), 0.12)+1e-12 {
		t.Error("priority exceeded theoretical bound")
	}
}

func TestDistanceWeightBlend(t *testing.T) {
	p := flatPolicy(t, map[string]float64{"u": 0.3, "v": 0.7})
	usage := map[string]float64{"u": 10, "v": 90}
	// k=1: pure relative; u: rel = (0.3-0.1)/0.3 = 2/3.
	ft1 := Compute(p, usage, Config{DistanceWeight: 1, Resolution: 10000})
	pr, _ := ft1.LeafPriority("u")
	if math.Abs(pr-2.0/3.0) > 1e-12 {
		t.Errorf("k=1 priority = %g, want 2/3", pr)
	}
	// k=0: pure absolute; u: abs = 0.3-0.1 = 0.2.
	ft0 := Compute(p, usage, Config{DistanceWeight: 0, Resolution: 10000})
	pr, _ = ft0.LeafPriority("u")
	if math.Abs(pr-0.2) > 1e-12 {
		t.Errorf("k=0 priority = %g, want 0.2", pr)
	}
	// k=0.5 is the midpoint of the two.
	ftHalf := Compute(p, usage, DefaultConfig())
	pr, _ = ftHalf.LeafPriority("u")
	if math.Abs(pr-0.5*(2.0/3.0+0.2)) > 1e-12 {
		t.Errorf("k=0.5 priority = %g", pr)
	}
}

func TestRelativeComponentClamped(t *testing.T) {
	// Over-consumption makes share-usageShare negative; the relative
	// component clamps to 0 (it is "always in the range [0,1]").
	p := flatPolicy(t, map[string]float64{"hog": 0.1, "idle": 0.9})
	ft := Compute(p, map[string]float64{"hog": 100, "idle": 0}, Config{DistanceWeight: 1, Resolution: 10000})
	pr, _ := ft.LeafPriority("hog")
	if pr != 0 {
		t.Errorf("clamped relative priority = %g, want 0", pr)
	}
}

// TestClampIsMathMaxMin pins score's clamp to the math.Max/math.Min pair it
// replaced, bit for bit: signed zeros, infinities, NaN payloads and both
// bounds.
func TestClampIsMathMaxMin(t *testing.T) {
	for _, hi := range []float64{1, 10000 - 1e-9} {
		for _, x := range []float64{
			math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Inf(1), math.Inf(-1),
			0, math.Copysign(0, -1), -1e-300, math.SmallestNonzeroFloat64, 0.5,
			1, hi, math.Nextafter(hi, 0), math.Nextafter(hi, 2*hi), -5, math.MaxFloat64,
		} {
			got, want := clamp(x, hi), math.Max(0, math.Min(hi, x))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("clamp(%v, %v) = %v (bits %x), math.Max/Min give %v (bits %x)",
					x, hi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestSubgroupIsolationInTree(t *testing.T) {
	// A node's value depends only on its sibling group: u1 vs u2 inside
	// projA must be unaffected by how much projB consumes.
	p := figure3Policy(t)
	light := Compute(p, map[string]float64{"u1": 10, "u2": 30, "u3": 1, "hq": 50, "lq": 20}, DefaultConfig())
	heavy := Compute(p, map[string]float64{"u1": 10, "u2": 30, "u3": 100000, "hq": 50, "lq": 20}, DefaultConfig())
	for _, u := range []string{"u1", "u2"} {
		a, _ := light.Vector(u)
		b, _ := heavy.Vector(u)
		// The last element (within projA) must be identical.
		if math.Abs(a[len(a)-1]-b[len(b)-1]) > 1e-9 {
			t.Errorf("%s leaf value changed with unrelated usage: %g vs %g", u, a[len(a)-1], b[len(b)-1])
		}
	}
}

func TestVectorDepthAndPadding(t *testing.T) {
	p := figure3Policy(t)
	usage := map[string]float64{"u1": 1, "u2": 2, "u3": 3, "hq": 4, "lq": 5}
	ft := Compute(p, usage, DefaultConfig())
	v3, ok := ft.Vector("u3")
	if !ok || len(v3) != 3 {
		t.Fatalf("u3 vector = %v", v3)
	}
	vlq, ok := ft.Vector("lq")
	if !ok || len(vlq) != 1 {
		t.Fatalf("lq vector = %v", vlq)
	}
	// Padded comparison against a depth-3 vector works (like /LQ in the
	// paper's example).
	padded := vlq.PadTo(3, ft.Config.Balance())
	if padded[1] != 5000 || padded[2] != 5000 {
		t.Errorf("padded = %v", padded)
	}
}

func TestValuesWithinResolution(t *testing.T) {
	p := figure3Policy(t)
	ft := Compute(p, map[string]float64{"u1": 1000, "hq": 1}, DefaultConfig())
	ft.Walk(func(path string, _ float64, members []Member) {
		for _, m := range members {
			if m.Value < 0 || m.Value >= 10000 {
				t.Errorf("node %s/%s value %g outside [0,10000)", path, m.Name, m.Value)
			}
		}
	})
}

func TestZeroGroupUsageGivesFullPriority(t *testing.T) {
	p := flatPolicy(t, map[string]float64{"a": 0.6, "b": 0.4})
	ft := Compute(p, nil, DefaultConfig())
	pa, _ := ft.LeafPriority("a")
	// usageShare = 0 → abs = share, rel = 1 → k + (1-k)·share.
	want := 0.5 + 0.5*0.6
	if math.Abs(pa-want) > 1e-12 {
		t.Errorf("a priority = %g, want %g", pa, want)
	}
}

func TestEntriesCarryPathShares(t *testing.T) {
	p := figure3Policy(t)
	usage := map[string]float64{"u1": 10, "u2": 30, "u3": 20, "hq": 30, "lq": 10}
	ft := Compute(p, usage, DefaultConfig())
	entries := ft.Entries()
	if len(entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(entries))
	}
	var u2 *vector.Entry
	for i := range entries {
		if entries[i].User == "u2" {
			u2 = &entries[i]
		}
	}
	if u2 == nil {
		t.Fatal("u2 entry missing")
	}
	wantShares := []float64{0.6, 0.75, 0.75}
	for i := range wantShares {
		if math.Abs(u2.PathShares[i]-wantShares[i]) > 1e-12 {
			t.Errorf("u2 path shares = %v, want %v", u2.PathShares, wantShares)
			break
		}
	}
	// Usage shares along path: grid usage 60 of 100 → 0.6; projA 40 of 60
	// → 2/3; u2 30 of 40 → 0.75.
	wantUsage := []float64{0.6, 2.0 / 3.0, 0.75}
	for i := range wantUsage {
		if math.Abs(u2.PathUsage[i]-wantUsage[i]) > 1e-12 {
			t.Errorf("u2 path usage = %v, want %v", u2.PathUsage, wantUsage)
			break
		}
	}
	if len(u2.Vec) != 3 {
		t.Errorf("u2 vector = %v", u2.Vec)
	}
}

func TestPrioritiesWithAllProjections(t *testing.T) {
	p := figure3Policy(t)
	usage := map[string]float64{"u1": 10, "u2": 80, "u3": 5, "hq": 100, "lq": 0}
	ft := Compute(p, usage, DefaultConfig())
	for _, proj := range vector.Projections() {
		got := ft.Priorities(proj)
		if len(got) != 5 {
			t.Errorf("%s: %d priorities", proj.Name(), len(got))
		}
		for u, v := range got {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("%s: %s = %g", proj.Name(), u, v)
			}
		}
		// lq has zero usage and must outrank hq (the heavy user) under
		// every projection.
		if got["lq"] <= got["hq"] {
			t.Errorf("%s: lq=%g should outrank hq=%g", proj.Name(), got["lq"], got["hq"])
		}
	}
}

func TestDepth(t *testing.T) {
	p := figure3Policy(t)
	ft := Compute(p, nil, DefaultConfig())
	if d := ft.Depth(); d != 3 {
		t.Errorf("Depth = %d", d)
	}
}

func TestLookupMissingUser(t *testing.T) {
	p := figure3Policy(t)
	ft := Compute(p, nil, DefaultConfig())
	if _, ok := ft.Vector("ghost"); ok {
		t.Error("vector for missing user")
	}
	if _, ok := ft.LeafPriority("ghost"); ok {
		t.Error("priority for missing user")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{DistanceWeight: 7, Resolution: -1}.normalized()
	if c.DistanceWeight != 1 {
		t.Errorf("clamped k = %g", c.DistanceWeight)
	}
	if c.Resolution != 10000 {
		t.Errorf("defaulted resolution = %g", c.Resolution)
	}
	if b := (Config{}).Balance(); b != 5000 {
		t.Errorf("default balance = %g", b)
	}
}

func TestComputeDoesNotMutatePolicy(t *testing.T) {
	p := figure3Policy(t)
	before := p.Root.Children[0].Share
	Compute(p, map[string]float64{"u1": 5}, DefaultConfig())
	if p.Root.Children[0].Share != before {
		t.Error("Compute mutated the policy tree")
	}
}

func TestProportionalValues(t *testing.T) {
	// Fairshare values are proportional: doubling the distance doubles the
	// offset from the balance point.
	p := flatPolicy(t, map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	ft := Compute(p, map[string]float64{"a": 50, "b": 30, "c": 20}, DefaultConfig())
	// All at target → all at balance.
	for _, u := range []string{"a", "b", "c"} {
		v, _ := ft.Vector(u)
		if math.Abs(v[0]-5000) > 1e-9 {
			t.Errorf("%s = %g", u, v[0])
		}
	}
}
