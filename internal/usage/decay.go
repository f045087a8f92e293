// Package usage implements Aequus usage accounting: per-user resource
// consumption records, time-binned usage histograms with configurable decay
// functions, and the compact per-user/per-site exchange records the Usage
// Statistics Services trade between sites ("relaying the combined usage of
// each user on each site while omitting the details of individual jobs").
package usage

import (
	"math"
	"time"
)

// Decay weights historical usage by age, controlling "how the impact of
// previous usage is decreased over time". Weight is 1 at age 0 and
// non-increasing in age. Ages are bin ages (see BinAge): a negative age is a
// started bin whose midpoint is still ahead, and it is weighted by the same
// formula — above 1, by at most 2^(binWidth/2H), because BinAge stops at
// minus half a bin.
//
// The family is sealed: every decay is an exponential half-life, None being
// the half-life that never halves. That is what lets a usage value travel
// between services as a sum at a reference instant plus one scale (see
// DeltaSet): a decay outside the family would need a second representation
// in every service, so none can be declared outside this package.
type Decay interface {
	// Weight returns the multiplier applied to usage of the given age.
	Weight(age time.Duration) float64
	// Name identifies the decay function.
	Name() string
	// halfLife is the decay's half-life, 0 for no decay.
	halfLife() time.Duration
}

// BinAge is the one definition of a bin's age at `now`: the time since the
// midpoint of the bin of the given width starting at start, where a bin
// counts as started no later than `now`. A started bin is valued at its
// midpoint from the moment it opens — its age runs from −width/2 upwards, so
// the relative weight of any two started bins never changes with the clock —
// and a bin that starts after `now` (clock skew, a bad report) is held at
// −width/2 until it does.
func BinAge(now, start time.Time, width time.Duration) time.Duration {
	age := now.Sub(start)
	if age < 0 {
		age = 0
	}
	return age - width/2
}

// halfLifeOf returns d's half-life; nil and None are 0.
func halfLifeOf(d Decay) time.Duration {
	if d == nil {
		return 0
	}
	return d.halfLife()
}

// ExponentialHalfLife decays usage by a factor of two every HalfLife.
// This is the default decay in the Aequus production configuration.
type ExponentialHalfLife struct {
	HalfLife time.Duration
}

// Name implements Decay.
func (d ExponentialHalfLife) Name() string { return "exp-half-life" }

// Weight implements Decay.
func (d ExponentialHalfLife) Weight(age time.Duration) float64 {
	if d.HalfLife <= 0 {
		return 1
	}
	return math.Exp2(-float64(age) / float64(d.HalfLife))
}

func (d ExponentialHalfLife) halfLife() time.Duration { return max(d.HalfLife, 0) }

// None applies no decay: all history counts equally.
type None struct{}

// Name implements Decay.
func (None) Name() string { return "none" }

// Weight implements Decay.
func (None) Weight(time.Duration) float64 { return 1 }

func (None) halfLife() time.Duration { return 0 }
