package usage

import (
	"time"

	"repro/internal/par"
)

// DeltaSet is the one form in which per-user usage travels between
// services: the USS's change cursor hands it to the UMS and the UMS to the
// FCS, so steady-state fairshare refreshes are incremental instead of
// re-reading the whole population.
//
// Values are sums at the Reference instant — Σ v·2^(-(Reference-mid)/H)
// over a user's bins, the plain sum without decay (see cursor.go) — which
// only change when a user's usage does. Scale is the one scalar that turns
// them back into decayed core-seconds: value × Scale is the decayed total
// at the instant the set was computed. Every decay is a half-life
// (decay.go), so there is no other representation. Scale lies in
// [2^-16, 1]: the reference is never ahead of that instant and is moved up
// before it falls 16 half-lives behind. Without decay Scale is 1 and
// Reference is zero; consumers read a Scale of 0 as 1.
//
// Version is a monotonically increasing watermark: it advances every time
// the provider publishes values that differ (bitwise) from the previous
// ones. Consumers store the Version they last acted on and pass it back as
// `since`. (A provider with an implicit cursor, like the USS, leaves it 0.)
//
// When Full is false, Changed maps each user whose value changed to its new
// absolute value (users that disappeared map to 0); users absent from
// Changed are bitwise unchanged. When Full is true the provider could not
// (or chose not to) produce a delta — first pull, a watermark more than one
// generation behind (the UMS keeps one), a moved reference instant, or a
// change so large a delta would not pay off. A Full set handed to a
// consumer carries the complete current values in Totals; the cursor's own
// Full sets carry none, and their reader asks Cursor.Sums for them.
//
// Changed and Totals reference the provider's internal state and MUST be
// treated as read-only by consumers.
type DeltaSet struct {
	Version uint64
	Full    bool
	Changed map[string]float64
	Totals  map[string]float64
	// Scale and Reference say how to read the values (see above).
	Scale     float64
	Reference time.Time
	// Users is the provider's population count, the base of the dirty share
	// that decides whether a delta pays off.
	Users int
}

// fullShare is the dirty share above which a change set is replaced by a
// Full marker: past it the FCS's copy-on-write Recalc.Apply costs as much
// as a rebuild from complete totals. Measured with BenchmarkRecalcApply
// against BenchmarkRecalcFullBaseline (2 cores, groups×users trees, ms per
// op, Apply at 25 % / 50 % / 100 % dirty vs Compute+NewIndex): 100k
// 18–23 / 35 / 67–73 vs 23–44; 1M 267–286 / 597–689 / 1221–1334 vs
// 358–414 (at 10k both sides are 1–3 ms and within each other's noise).
// By those numbers alone the curves cross near a third of the population
// at 1M — but a Full generation also costs the UMS one O(users)
// materialisation (≈270 ms at 1M), which puts the crossing back at about
// half. It is a constant, not a knob.
const fullShare = 0.5

// DeltaPays reports whether a change set of `changed` out of `users` users
// is worth handing on as a delta instead of a Full marker.
//
// Below par.Threshold users the share does not apply: nothing fans out
// there, the two sides differ by about a millisecond (one core, 10k users,
// Apply at 100 % dirty vs the rebuild: 4.2 vs 2.9 ms), and a change set of a
// few thousand entries is no burden to keep.
func DeltaPays(changed, users int) bool {
	return users < par.Threshold || float64(changed) <= fullShare*float64(users)
}
