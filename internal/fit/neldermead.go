// Package fit implements the statistical procedures of the paper's workload
// characterization: maximum-likelihood fitting via Nelder-Mead, model
// selection by the Bayesian information criterion, Kolmogorov-Smirnov
// goodness-of-fit tests, autocorrelation analysis, and the empirical
// CDF/histogram machinery behind Figures 4-7.
package fit

import "math"

// Objective is a function to minimize over a parameter vector.
type Objective func(x []float64) float64

// NelderMeadOptions tunes the downhill-simplex minimizer.
type NelderMeadOptions struct {
	// MaxIter bounds the number of iterations; <= 0 means 400*dim.
	MaxIter int
}

// The minimizer stops once the simplex's function spread falls below tolF.
// Its initial simplex steps each coordinate by simplexScale of its value
// (by simplexScale itself for a zero coordinate).
const (
	tolF         = 1e-10
	simplexScale = 0.1
)

// NelderMead minimizes f starting from x0 using the downhill-simplex method
// with the standard reflection/expansion/contraction/shrink coefficients.
// It returns the best point found and its value. f may return +Inf to mark
// infeasible regions.
func NelderMead(f Objective, x0 []float64, opt NelderMeadOptions) ([]float64, float64) {
	dim := len(x0)
	if dim == 0 {
		return nil, f(nil)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 400 * dim
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// Build initial simplex.
	pts := make([][]float64, dim+1)
	vals := make([]float64, dim+1)
	pts[0] = append([]float64(nil), x0...)
	vals[0] = f(pts[0])
	for i := 0; i < dim; i++ {
		p := append([]float64(nil), x0...)
		step := simplexScale * math.Abs(p[i])
		if step == 0 {
			step = simplexScale
		}
		p[i] += step
		pts[i+1] = p
		vals[i+1] = f(p)
	}

	order := func() {
		// Insertion sort by value — simplex is tiny.
		for i := 1; i <= dim; i++ {
			p, v := pts[i], vals[i]
			j := i - 1
			for j >= 0 && vals[j] > v {
				pts[j+1], vals[j+1] = pts[j], vals[j]
				j--
			}
			pts[j+1], vals[j+1] = p, v
		}
	}

	centroid := make([]float64, dim)
	tryPoint := make([]float64, dim)

	diameter := func() float64 {
		var dmax float64
		for i := 1; i <= dim; i++ {
			for j := 0; j < dim; j++ {
				if d := math.Abs(pts[i][j] - pts[0][j]); d > dmax {
					dmax = d
				}
			}
		}
		return dmax
	}

	for iter := 0; iter < opt.MaxIter; iter++ {
		order()
		// Converged only when both function spread and simplex size are
		// small: symmetric non-smooth objectives (e.g. |x-c|) can have zero
		// value spread across a simplex that still straddles the minimum.
		if spread := vals[dim] - vals[0]; spread < tolF &&
			!math.IsInf(vals[0], 0) && !math.IsInf(vals[dim], 0) &&
			diameter() < 1e-9*(1+math.Abs(pts[0][0])) {
			break
		}

		// Centroid of all but the worst.
		for j := 0; j < dim; j++ {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				centroid[j] += pts[i][j]
			}
		}
		for j := 0; j < dim; j++ {
			centroid[j] /= float64(dim)
		}

		// Reflection.
		for j := 0; j < dim; j++ {
			tryPoint[j] = centroid[j] + alpha*(centroid[j]-pts[dim][j])
		}
		fr := f(tryPoint)
		switch {
		case fr < vals[0]:
			// Expansion.
			exp := make([]float64, dim)
			for j := 0; j < dim; j++ {
				exp[j] = centroid[j] + gamma*(tryPoint[j]-centroid[j])
			}
			fe := f(exp)
			if fe < fr {
				copy(pts[dim], exp)
				vals[dim] = fe
			} else {
				copy(pts[dim], tryPoint)
				vals[dim] = fr
			}
		case fr < vals[dim-1]:
			copy(pts[dim], tryPoint)
			vals[dim] = fr
		default:
			// Contraction (toward the better of reflected/worst).
			worst := pts[dim]
			fw := vals[dim]
			if fr < fw {
				worst = tryPoint
				fw = fr
			}
			con := make([]float64, dim)
			for j := 0; j < dim; j++ {
				con[j] = centroid[j] + rho*(worst[j]-centroid[j])
			}
			fc := f(con)
			if fc < fw {
				copy(pts[dim], con)
				vals[dim] = fc
			} else {
				// Shrink toward the best point.
				for i := 1; i <= dim; i++ {
					for j := 0; j < dim; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					vals[i] = f(pts[i])
				}
			}
		}
	}
	order()
	return pts[0], vals[0]
}
