package dist

import "math"

// GEV is the Generalized Extreme Value distribution in the Matlab-style
// parameterization used by the paper (Tables II and III): shape K, scale
// Sigma, location Mu. For K != 0 the CDF is
//
//	F(x) = exp(-(1 + K*(x-Mu)/Sigma)^(-1/K))
//
// on the support where 1 + K*(x-Mu)/Sigma > 0; K = 0 gives the Gumbel limit.
type GEV struct {
	K, Sigma, Mu float64
}

// NewGEV returns a GEV distribution; Sigma must be positive.
func NewGEV(k, sigma, mu float64) (GEV, error) {
	if !(sigma > 0) || !finite(k, sigma, mu) {
		return GEV{}, ErrBadParams
	}
	return GEV{K: k, Sigma: sigma, Mu: mu}, nil
}

// Name implements Dist.
func (d GEV) Name() string { return "GEV" }

// Params implements Dist.
func (d GEV) Params() []float64 { return []float64{d.K, d.Sigma, d.Mu} }

// PDF implements Dist.
func (d GEV) PDF(x float64) float64 {
	lp := d.LogPDF(x)
	if math.IsInf(lp, -1) {
		return 0
	}
	return math.Exp(lp)
}

// LogPDF implements Dist.
func (d GEV) LogPDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	if d.K == 0 {
		return -math.Log(d.Sigma) - z - math.Exp(-z)
	}
	arg := 1 + d.K*z
	if arg <= 0 {
		return math.Inf(-1)
	}
	la := math.Log(arg)
	return -math.Log(d.Sigma) - (1+1/d.K)*la - math.Exp(-la/d.K)
}

// CDF implements Dist.
func (d GEV) CDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	if d.K == 0 {
		return math.Exp(-math.Exp(-z))
	}
	arg := 1 + d.K*z
	if arg <= 0 {
		if d.K > 0 {
			return 0 // below the lower endpoint
		}
		return 1 // above the upper endpoint (K < 0)
	}
	return math.Exp(-math.Pow(arg, -1/d.K))
}

// Quantile implements Dist.
func (d GEV) Quantile(p float64) float64 {
	p = clampP(p)
	if d.K == 0 {
		return d.Mu - d.Sigma*math.Log(-math.Log(p))
	}
	return d.Mu + d.Sigma*(math.Pow(-math.Log(p), -d.K)-1)/d.K
}

// Support implements Dist.
func (d GEV) Support() (float64, float64) {
	switch {
	case d.K > 0:
		return d.Mu - d.Sigma/d.K, math.Inf(1)
	case d.K < 0:
		return math.Inf(-1), d.Mu - d.Sigma/d.K
	default:
		return math.Inf(-1), math.Inf(1)
	}
}

// Mean implements Dist.
func (d GEV) Mean() float64 {
	const eulerGamma = 0.5772156649015329
	switch {
	case d.K == 0:
		return d.Mu + d.Sigma*eulerGamma
	case d.K >= 1:
		return math.Inf(1)
	default:
		lg, sign := math.Lgamma(1 - d.K)
		g1 := float64(sign) * math.Exp(lg)
		return d.Mu + d.Sigma*(g1-1)/d.K
	}
}

// Gumbel is the type-I extreme value distribution with location Mu and scale
// Beta (the K -> 0 limit of GEV).
type Gumbel struct {
	Mu, Beta float64
}

// NewGumbel returns a Gumbel distribution; Beta must be positive.
func NewGumbel(mu, beta float64) (Gumbel, error) {
	if !(beta > 0) || !finite(mu, beta) {
		return Gumbel{}, ErrBadParams
	}
	return Gumbel{Mu: mu, Beta: beta}, nil
}

// Name implements Dist.
func (d Gumbel) Name() string { return "Gumbel" }

// Params implements Dist.
func (d Gumbel) Params() []float64 { return []float64{d.Mu, d.Beta} }

// PDF implements Dist.
func (d Gumbel) PDF(x float64) float64 { return math.Exp(d.LogPDF(x)) }

// LogPDF implements Dist.
func (d Gumbel) LogPDF(x float64) float64 {
	z := (x - d.Mu) / d.Beta
	return -math.Log(d.Beta) - z - math.Exp(-z)
}

// CDF implements Dist.
func (d Gumbel) CDF(x float64) float64 {
	z := (x - d.Mu) / d.Beta
	return math.Exp(-math.Exp(-z))
}

// Quantile implements Dist.
func (d Gumbel) Quantile(p float64) float64 {
	p = clampP(p)
	return d.Mu - d.Beta*math.Log(-math.Log(p))
}

// Support implements Dist.
func (d Gumbel) Support() (float64, float64) { return math.Inf(-1), math.Inf(1) }

// Mean implements Dist.
func (d Gumbel) Mean() float64 {
	const eulerGamma = 0.5772156649015329
	return d.Mu + d.Beta*eulerGamma
}
