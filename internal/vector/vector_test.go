package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPadTo(t *testing.T) {
	v := Vector{7000, 3000}
	p := v.PadTo(4, 5000)
	if len(p) != 4 || p[2] != 5000 || p[3] != 5000 {
		t.Errorf("PadTo = %v", p)
	}
	if len(v) != 2 {
		t.Error("PadTo mutated input")
	}
	// Already long enough: copy returned.
	same := v.PadTo(1, 5000)
	if len(same) != 2 {
		t.Errorf("PadTo shorter = %v", same)
	}
}

func TestCompareLexicographic(t *testing.T) {
	bal := 5000.0
	cases := []struct {
		a, b Vector
		want int
	}{
		{Vector{6000, 1000}, Vector{5000, 9999}, 1},  // top level dominates
		{Vector{5000, 1000}, Vector{5000, 2000}, -1}, // tie broken at level 2
		{Vector{5000, 5000}, Vector{5000, 5000}, 0},
		{Vector{6000}, Vector{6000, 4000}, 1},  // padding: 5000 > 4000
		{Vector{6000}, Vector{6000, 6000}, -1}, // padding: 5000 < 6000
		{Vector{6000}, Vector{6000, 5000}, 0},  // padding equal
		{nil, Vector{5000}, 0},                 // both effectively balance
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b, bal); got != c.want {
			t.Errorf("case %d: Compare(%v, %v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a, bal); got != -c.want {
			t.Errorf("case %d: reverse Compare = %d, want %d", i, got, -c.want)
		}
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		va, vb := Vector(a), Vector(b)
		return va.Compare(vb, 5000) == -vb.Compare(va, 5000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	v := Vector{7499, 5000, 2500}
	if got := v.String(); got != "7499:5000:2500" {
		t.Errorf("String = %q", got)
	}
}

func entriesABC() []Entry {
	// a above balance, b at balance, c below.
	return []Entry{
		{User: "a", Vec: Vector{7500}, PathShares: []float64{0.5}, PathUsage: []float64{0.2}},
		{User: "b", Vec: Vector{5000}, PathShares: []float64{0.3}, PathUsage: []float64{0.3}},
		{User: "c", Vec: Vector{2500}, PathShares: []float64{0.2}, PathUsage: []float64{0.5}},
	}
}

func TestDictionaryEvenSpacing(t *testing.T) {
	// "three vectors would result in the numerical values 0.75, 0.50, and
	// 0.25, according to sorting order."
	got := Dictionary{}.Project(entriesABC(), 10000)
	want := map[string]float64{"a": 0.75, "b": 0.50, "c": 0.25}
	for u, w := range want {
		if math.Abs(got[u]-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", u, got[u], w)
		}
	}
}

func TestDictionaryTiesShareValue(t *testing.T) {
	es := []Entry{
		{User: "a", Vec: Vector{7000}},
		{User: "b", Vec: Vector{7000}},
		{User: "c", Vec: Vector{3000}},
	}
	got := Dictionary{}.Project(es, 10000)
	if got["a"] != got["b"] {
		t.Errorf("tied vectors got %g and %g", got["a"], got["b"])
	}
	if got["c"] >= got["a"] {
		t.Errorf("lower vector got %g >= %g", got["c"], got["a"])
	}
}

func TestDictionaryEmpty(t *testing.T) {
	if got := (Dictionary{}).Project(nil, 10000); len(got) != 0 {
		t.Errorf("empty projection = %v", got)
	}
}

func TestDictionaryLosesProportionality(t *testing.T) {
	// Table I: dictionary ordering is NOT proportional — the relative
	// difference between users is lost, only order survives.
	es := []Entry{
		{User: "far", Vec: Vector{9999}},
		{User: "mid", Vec: Vector{5001}},
		{User: "near", Vec: Vector{5000}},
	}
	got := Dictionary{}.Project(es, 10000)
	gapTop := got["far"] - got["mid"]  // vector gap 4998
	gapBot := got["mid"] - got["near"] // vector gap 1
	if math.Abs(gapTop-gapBot) > 1e-12 {
		t.Errorf("dictionary spacing should be rank-based: gaps %g vs %g", gapTop, gapBot)
	}
}

func TestBitwiseOrderPreserved(t *testing.T) {
	got := Bitwise{}.Project(entriesABC(), 10000)
	if !(got["a"] > got["b"] && got["b"] > got["c"]) {
		t.Errorf("bitwise order: %v", got)
	}
	for u, v := range got {
		if v < 0 || v > 1 {
			t.Errorf("%s = %g outside [0,1]", u, v)
		}
	}
}

func TestBitwiseTopLevelDominates(t *testing.T) {
	// The top-level values must differ by more than one 8-bit quantum
	// (10000/256 ≈ 39) to be distinguishable at all.
	es := []Entry{
		{User: "hi", Vec: Vector{6000, 0}},
		{User: "lo", Vec: Vector{5900, 9999}},
	}
	got := Bitwise{}.Project(es, 10000)
	if got["hi"] <= got["lo"] {
		t.Errorf("top level must dominate: hi=%g lo=%g", got["hi"], got["lo"])
	}
}

func TestBitwiseDepthLimited(t *testing.T) {
	// Table I: bitwise does NOT support arbitrary depth — elements beyond
	// MaxLevels are ignored, so vectors differing only there collapse.
	deep1 := make(Vector, 8)
	deep2 := make(Vector, 8)
	for i := range deep1 {
		deep1[i], deep2[i] = 5000, 5000
	}
	deep1[7], deep2[7] = 9999, 0 // differ only at level 8
	es := []Entry{{User: "x", Vec: deep1}, {User: "y", Vec: deep2}}
	got := Bitwise{BitsPerLevel: 8, MaxLevels: 6}.Project(es, 10000)
	if got["x"] != got["y"] {
		t.Errorf("levels beyond MaxLevels should not matter: %g vs %g", got["x"], got["y"])
	}
}

func TestBitwisePrecisionLimited(t *testing.T) {
	// Table I: bitwise does NOT have unlimited precision — values closer
	// than the quantization step collapse.
	es := []Entry{
		{User: "x", Vec: Vector{5000.0}},
		{User: "y", Vec: Vector{5000.4}},
	}
	got := Bitwise{BitsPerLevel: 8, MaxLevels: 1}.Project(es, 10000)
	if got["x"] != got["y"] {
		t.Errorf("sub-quantum difference should collapse: %g vs %g", got["x"], got["y"])
	}
}

func TestBitwiseParamsClampedToMantissa(t *testing.T) {
	b := Bitwise{BitsPerLevel: 16, MaxLevels: 8} // 128 bits > 52
	bits, levels := b.params()
	if bits*levels > 52 {
		t.Errorf("params = %d bits × %d levels exceeds float64 mantissa", bits, levels)
	}
}

func TestPercentalProportional(t *testing.T) {
	// Table I: percental IS proportional — differences in (target−usage)
	// map linearly to the output.
	es := []Entry{
		{User: "a", PathShares: []float64{0.6}, PathUsage: []float64{0.2}}, // +0.4
		{User: "b", PathShares: []float64{0.3}, PathUsage: []float64{0.3}}, // 0
		{User: "c", PathShares: []float64{0.1}, PathUsage: []float64{0.5}}, // -0.4
	}
	got := Percental{}.Project(es, 10000)
	if math.Abs((got["a"]-got["b"])-(got["b"]-got["c"])) > 1e-12 {
		t.Errorf("percental not proportional: %v", got)
	}
	if math.Abs(got["b"]-0.5) > 1e-12 {
		t.Errorf("balanced user = %g, want 0.5", got["b"])
	}
}

func TestPercentalMatchesPaperExample(t *testing.T) {
	// "a project share of 0.20 and a user share of 0.25 result in a share
	// of 0.05."
	e := Entry{User: "u", PathShares: []float64{0.20, 0.25}, PathUsage: []float64{0, 0}}
	got := Percental{}.Project([]Entry{e}, 10000)
	// target 0.05, usage 0 → (0.05+1)/2 = 0.525
	if math.Abs(got["u"]-0.525) > 1e-12 {
		t.Errorf("value = %g, want 0.525", got["u"])
	}
}

// TestPercentalValueIsTheClampedRescale pins Value, which the FCS publish
// pass calls on share products directly, to the definition ProjectEntry has
// always had — max(0, min(1, ((target − usage) + 1) / 2)) — bit for bit
// (NaN for NaN), including the values only corrupt inputs produce.
func TestPercentalValueIsTheClampedRescale(t *testing.T) {
	check := func(target, usage float64) bool {
		want := math.Max(0, math.Min(1, ((target-usage)+1)/2))
		got := Percental{}.Value(target, usage)
		viaEntry := Percental{}.ProjectEntry(Entry{PathShares: []float64{target}, PathUsage: []float64{usage}}, 10000)
		same := func(x float64) bool {
			return math.Float64bits(x) == math.Float64bits(want) || math.IsNaN(x) && math.IsNaN(want)
		}
		return same(got) && same(viaEntry)
	}
	edge := []float64{0, 1, -1, 0.5, 1e-300, 1 - 1e-16, 2, -2, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for _, target := range edge {
		for _, usage := range edge {
			if !check(target, usage) {
				t.Errorf("Value(%v, %v) = %v", target, usage, Percental{}.Value(target, usage))
			}
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b uint16) bool {
		return check(float64(a)/65535, float64(b)/65535)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPercentalLosesSubgroupIsolation(t *testing.T) {
	// Groups G1{a,b} and G2{c} each hold 50%. b idles while a consumed 45%
	// of the total (G1 usage 0.45 < target 0.5, so as a GROUP G1 is under
	// target and strict top-down enforcement would rank a above c). The
	// percental projection instead multiplies through the hierarchy and
	// ranks c above a — the isolation loss of Table I.
	a := Entry{User: "a", Vec: Vector{5500, 0},
		PathShares: []float64{0.5, 0.5}, PathUsage: []float64{0.45, 1.0}}
	c := Entry{User: "c", Vec: Vector{4500, 5000},
		PathShares: []float64{0.5, 1.0}, PathUsage: []float64{0.55, 1.0}}
	es := []Entry{a, c}

	dict := Dictionary{}.Project(es, 10000)
	if dict["a"] <= dict["c"] {
		t.Errorf("dictionary should isolate subgroups: a=%g c=%g", dict["a"], dict["c"])
	}
	perc := Percental{}.Project(es, 10000)
	if perc["a"] >= perc["c"] {
		t.Errorf("percental should NOT isolate subgroups here: a=%g c=%g", perc["a"], perc["c"])
	}
}

func TestAllProjectionsOutputUnitInterval(t *testing.T) {
	es := entriesABC()
	for _, p := range Projections() {
		got := p.Project(es, 10000)
		if len(got) != len(es) {
			t.Errorf("%s: %d outputs", p.Name(), len(got))
		}
		for u, v := range got {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("%s: %s = %g", p.Name(), u, v)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"dictionary", "bitwise", "percental"} {
		p, ok := ByName(name)
		if !ok || p.Name() != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown projection found")
	}
}
