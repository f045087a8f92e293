// Package vector implements Aequus fairshare vectors (Section III-C): the
// per-user value vectors extracted from the fairshare tree, balance-point
// padding, lexicographic comparison, and the three projection algorithms of
// Table I that collapse a vector into a single number in [0,1] combinable
// with other scheduling factors.
package vector

import (
	"fmt"
	"strings"
)

// Vector is a fairshare vector: one element per level of the identity
// hierarchy, from the first level below the root down to the user's leaf.
// Elements live in the configurable resolution range [0, resolution) with
// the balance point at resolution/2. Elements are float64 so precision is
// "limited only by the numerical resolution of floating point
// representation".
type Vector []float64

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// PadTo extends the vector to length n by appending the balance point —
// what the paper does when "a path should end before reaching the bottom
// level of the tree (like /LQ does in the example)".
func (v Vector) PadTo(n int, balance float64) Vector {
	if len(v) >= n {
		return v.Clone()
	}
	out := make(Vector, n)
	copy(out, v)
	for i := len(v); i < n; i++ {
		out[i] = balance
	}
	return out
}

// Compare orders vectors lexicographically from the top (leftmost) level.
// Shorter vectors are implicitly padded with the balance point. It returns
// -1 if v ranks below o, +1 if above, 0 if equal.
func (v Vector) Compare(o Vector, balance float64) int {
	n := len(v)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		a, b := balance, balance
		if i < len(v) {
			a = v[i]
		}
		if i < len(o) {
			b = o[i]
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	return 0
}

// String renders the vector with integer element values, in the style of
// the paper's Figure 3 (e.g. "7499:5000:2500").
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, e := range v {
		parts[i] = fmt.Sprintf("%04.0f", e)
	}
	return strings.Join(parts, ":")
}

// Entry carries everything the projections need for one user: the fairshare
// vector plus the per-level policy and usage shares along the user's path.
type Entry struct {
	// User is the grid user identity.
	User string
	// Vec is the user's fairshare vector.
	Vec Vector
	// PathShares holds the normalized target share at each level.
	PathShares []float64
	// PathUsage holds the usage share (within the sibling group) at each
	// level.
	PathUsage []float64
}

// Projection collapses fairshare vectors into single values in [0,1]: the
// scalar a SLURM or Maui priority can weigh like any other factor (the RM
// substrates here use it alone).
type Projection interface {
	// Name identifies the algorithm.
	Name() string
	// Project maps each entry's user to a value in [0,1]. resolution is the
	// fairshare value range (balance point = resolution/2).
	Project(entries []Entry, resolution float64) map[string]float64
}

// PointwiseProjection is implemented by projections whose value for one
// entry depends only on that entry (Bitwise, Percental — but not
// Dictionary, whose rank values couple every entry through the global
// sort). Pointwise projections let the FCS fill a per-position priority
// slice directly from the serving index, with no intermediate map and
// trivially parallelizable per-entry work.
type PointwiseProjection interface {
	Projection
	// ProjectEntry maps one entry to its value in [0,1], identical to the
	// value Project would assign it.
	ProjectEntry(e Entry, resolution float64) float64
}
