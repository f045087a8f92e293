package vector

import "sort"

// Dictionary implements the Dictionary Ordering projection: vectors are
// sorted lexicographically (descending) and each is assigned an evenly
// spaced value in (0,1) by rank — "three vectors would result in the
// numerical values 0.75, 0.50, and 0.25, according to sorting order".
// Equal vectors receive equal values. Rank spacing preserves depth,
// precision and subgroup isolation but loses proportionality: only the
// sorting order survives, not relative differences.
type Dictionary struct{}

// Name implements Projection.
func (Dictionary) Name() string { return "dictionary" }

// Project implements Projection.
func (Dictionary) Project(entries []Entry, resolution float64) map[string]float64 {
	out := make(map[string]float64, len(entries))
	if len(entries) == 0 {
		return out
	}
	balance := resolution / 2
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	// Descending: best vector first.
	sort.SliceStable(idx, func(a, b int) bool {
		return entries[idx[a]].Vec.Compare(entries[idx[b]].Vec, balance) > 0
	})
	n := float64(len(entries))
	rankValue := func(rank int) float64 { return (n - float64(rank)) / (n + 1) }
	prevRank := 0
	for pos, i := range idx {
		if pos > 0 {
			prev := entries[idx[pos-1]]
			if entries[i].Vec.Compare(prev.Vec, balance) != 0 {
				prevRank = pos
			}
		}
		out[entries[i].User] = rankValue(prevRank)
	}
	return out
}

// Bitwise implements the Bitwise Vector projection: each vector element is
// awarded BitsPerLevel bits of entropy, bitwise-merged with the top level at
// the most significant end, and the packed integer is rescaled to [0,1].
// Depth is limited to MaxLevels and precision to BitsPerLevel bits per
// level — the two properties this projection trades away (Table I) — but
// within that quantization it remains proportional and subgroup-isolating.
type Bitwise struct {
	// BitsPerLevel is the entropy per vector element (default 8).
	BitsPerLevel int
	// MaxLevels is the number of levels packed (default 6; the product
	// BitsPerLevel×MaxLevels must stay within float64's 53-bit mantissa).
	MaxLevels int
}

// Name implements Projection.
func (Bitwise) Name() string { return "bitwise" }

func (b Bitwise) params() (bits, levels int) {
	bits, levels = b.BitsPerLevel, b.MaxLevels
	if bits <= 0 {
		bits = 8
	}
	if levels <= 0 {
		levels = 6
	}
	for bits*levels > 52 { // keep the packed value exact in a float64
		levels--
	}
	if levels < 1 {
		levels = 1
	}
	return bits, levels
}

// Project implements Projection.
func (b Bitwise) Project(entries []Entry, resolution float64) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		out[e.User] = b.ProjectEntry(e, resolution)
	}
	return out
}

// ProjectEntry implements PointwiseProjection.
func (b Bitwise) ProjectEntry(e Entry, resolution float64) float64 {
	bits, levels := b.params()
	balance := resolution / 2
	maxQ := uint64(1)<<uint(bits) - 1
	denom := float64(uint64(1)<<uint(bits*levels) - 1)
	vec := e.Vec.PadTo(levels, balance)
	var packed uint64
	for i := 0; i < levels; i++ {
		q := uint64(vec[i] / resolution * float64(maxQ+1))
		if q > maxQ {
			q = maxQ
		}
		packed = packed<<uint(bits) | q
	}
	return float64(packed) / denom
}

// Percental implements the Percental projection: the user's total target
// share is the product of shares down the path, total usage likewise, and
// the value is (target − usage) rescaled to [0,1]. This preserves depth,
// precision and proportionality but loses subgroup isolation (multiplying
// through the hierarchy lets siblings' behaviour leak across groups).
// "A similar approach is used in SLURM prior to version 2.5."
type Percental struct{}

// Name implements Projection.
func (Percental) Name() string { return "percental" }

// Project implements Projection.
func (Percental) Project(entries []Entry, resolution float64) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		out[e.User] = Percental{}.ProjectEntry(e, resolution)
	}
	return out
}

// ProjectEntry implements PointwiseProjection.
func (p Percental) ProjectEntry(e Entry, _ float64) float64 {
	target, usage := 1.0, 1.0
	for _, s := range e.PathShares {
		target *= s
	}
	for _, u := range e.PathUsage {
		usage *= u
	}
	return p.Value(target, usage)
}

// Value is the percental value of a user whose path shares multiply to
// target and whose path usage shares multiply to usage.
func (Percental) Value(target, usage float64) float64 {
	// target − usage ∈ [−1, 1]; rescale to [0,1].
	v := ((target - usage) + 1) / 2
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// Projections returns the three built-in projection algorithms.
func Projections() []Projection {
	return []Projection{Dictionary{}, Bitwise{}, Percental{}}
}

// ByName returns the projection with the given name.
func ByName(name string) (Projection, bool) {
	for _, p := range Projections() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}
