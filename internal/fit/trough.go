package fit

// TroughBoundaries locates phase boundaries in a hump-shaped rate series
// (like U65's quarterly arrival cycles): the series is smoothed with a
// moving average and the deepest local minima, separated by at least
// minSep, are returned ascending. n bounds the number of boundaries.
func TroughBoundaries(xs []float64, n, minSep, smooth int) []int {
	if len(xs) < 4 || n <= 0 {
		return nil
	}
	if smooth < 1 {
		smooth = 1
	}
	if minSep < 1 {
		minSep = 1
	}
	sm := movingAverage(xs, smooth)
	// Candidate minima: strictly lower than both neighbours in the
	// smoothed series (plateaus take their left edge).
	type cand struct {
		idx int
		val float64
	}
	var cands []cand
	for i := 1; i < len(sm)-1; i++ {
		if sm[i] <= sm[i-1] && sm[i] < sm[i+1] {
			cands = append(cands, cand{i, sm[i]})
		}
	}
	// Greedily pick the deepest minima respecting the separation.
	for i := 1; i < len(cands); i++ { // insertion sort by depth
		for j := i; j > 0 && cands[j].val < cands[j-1].val; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var picked []int
	for _, c := range cands {
		ok := true
		for _, p := range picked {
			if abs(c.idx-p) < minSep {
				ok = false
				break
			}
		}
		if ok {
			picked = append(picked, c.idx)
			if len(picked) == n {
				break
			}
		}
	}
	// The trailing moving average delays features by ~(smooth−1)/2; shift
	// the boundaries back to centre them.
	shift := (smooth - 1) / 2
	for i := range picked {
		picked[i] -= shift
		if picked[i] < 1 {
			picked[i] = 1
		}
	}
	for i := 1; i < len(picked); i++ { // ascending
		for j := i; j > 0 && picked[j] < picked[j-1]; j-- {
			picked[j], picked[j-1] = picked[j-1], picked[j]
		}
	}
	return picked
}

func movingAverage(xs []float64, w int) []float64 {
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= w {
			sum -= xs[i-w]
		}
		n := w
		if i+1 < w {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
