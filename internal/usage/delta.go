package usage

import "time"

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
// (or chose not to) produce a delta — first pull, watermark no longer
// covered by the provider's bounded log, a moved reference instant, or a
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
// as Compute+NewIndex from complete totals. Measured with
// BenchmarkRecalcApply against BenchmarkRecalcFullBaseline (2 cores,
// groups×users trees, ms per op, Apply at 25 % / 50 % / 100 % dirty vs the
// full rebuild): 100k 37 / 47 / 73 vs 47; 1M 487 / 671 / 1353 vs 911 (at
// 10k both sides are 4–6 ms and within each other's noise). The curves
// cross at half the population at 100k and at two thirds at 1M, and a
// VO×project×user tree of 100k crosses at 45 %; a Full generation also
// costs the UMS one O(users) materialisation, so the share errs on the
// side of the delta. It is a constant, not a knob.
const fullShare = 0.5

// serialRebuildUsers is the population below which the share does not
// apply: the rebuild only wins through its parallel build, which starts at
// fairshare's 4096-node threshold. On one core Apply at 100 % dirty costs
// what the rebuild does (10k: 4.2 vs 4.8 ms; 100k: 76 vs 69 ms), and a
// change set of a few thousand entries is no burden to keep.
const serialRebuildUsers = 4096

// DeltaPays reports whether a change set of `changed` out of `users` users
// is worth handing on as a delta instead of a Full marker.
func DeltaPays(changed, users int) bool {
	return users < serialRebuildUsers || float64(changed) <= fullShare*float64(users)
}
