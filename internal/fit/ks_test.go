package fit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

func TestKSSelfFitIsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, _ := dist.NewGEV(-0.386, 19.5, 100)
	xs := dist.SampleN(d, rng, 5000)
	ks := KolmogorovSmirnov(xs, d)
	// For n=5000, D should be ~sqrt(ln2/ (2n)) ≈ 0.008; allow generous slack.
	if ks > 0.03 {
		t.Errorf("KS of own sample = %g, want small", ks)
	}
}

func TestKSDetectsWrongModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	exp, _ := dist.NewExponential(1)
	norm, _ := dist.NewNormal(1, 1)
	xs := dist.SampleN(exp, rng, 2000)
	ksGood := KolmogorovSmirnov(xs, exp)
	ksBad := KolmogorovSmirnov(xs, norm)
	if ksBad <= ksGood*3 {
		t.Errorf("wrong model KS=%g not clearly worse than right model KS=%g", ksBad, ksGood)
	}
}

func TestKSExactSmallSample(t *testing.T) {
	// Single point at the median of U(0,1): D = 0.5 exactly.
	u, _ := dist.NewUniform(0, 1)
	ks := KolmogorovSmirnov([]float64{0.5}, u)
	if math.Abs(ks-0.5) > 1e-12 {
		t.Errorf("KS = %g, want 0.5", ks)
	}
	if !math.IsNaN(KolmogorovSmirnov(nil, u)) {
		t.Error("empty sample should give NaN")
	}
}
