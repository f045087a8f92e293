package scenario

import (
	"sort"
	"time"

	"repro/internal/usage"
)

// LedgerRecord is one completed job as the harness observed it at the
// cluster, independent of everything the Aequus pipeline recorded.
type LedgerRecord struct {
	Site  int
	User  string
	Start time.Time
	Dur   time.Duration
	Procs int
}

// Ledger is the independent usage ledger behind the ledger-equivalence
// invariant: a flat list of completion records, recomputed from scratch on
// every check (O(records) per check, O(n²) over the run) and compared
// against the USS histograms' decayed totals. It deliberately shares no
// code with usage.Histogram beyond the published accounting rules: a job's
// full usage is attributed to the interval containing its completion time
// (which keeps closed intervals immutable for the incremental exchange),
// and decay ages are bin ages (usage.BinAge).
type Ledger struct {
	records []LedgerRecord
}

// Add appends a completion record.
func (l *Ledger) Add(r LedgerRecord) { l.records = append(l.records, r) }

// Len returns the number of recorded completions.
func (l *Ledger) Len() int { return len(l.records) }

// ledgerBinStart floors t to the bin boundary, matching the histogram's
// epoch-aligned bins (floor division handles pre-epoch times).
func ledgerBinStart(t time.Time, width time.Duration) int64 {
	w := int64(width / time.Second)
	if w <= 0 {
		w = 1
	}
	u := t.Unix()
	q := u / w
	if u%w < 0 {
		q--
	}
	return q * w
}

// Totals recomputes one site's per-user decayed totals from first
// principles: each record's core-seconds land in the bin containing its
// completion time, and every bin is weighted by the decay of its bin age
// at `now`. The result is what the site's USS LocalTotals must equal
// (within float tolerance) if the whole accounting pipeline — batch
// ingestion, lock striping, the incremental half-life tracker — is honest.
func (l *Ledger) Totals(site int, binWidth time.Duration, now time.Time, d usage.Decay) map[string]float64 {
	if d == nil {
		d = usage.None{}
	}
	if binWidth <= 0 {
		binWidth = time.Hour
	}
	type key struct {
		user string
		bin  int64
	}
	bins := map[key]float64{}
	for _, r := range l.records {
		if r.Site != site || r.Dur <= 0 || r.User == "" {
			continue
		}
		procs := r.Procs
		if procs < 1 {
			procs = 1
		}
		bs := ledgerBinStart(r.Start.Add(r.Dur), binWidth)
		bins[key{r.User, bs}] += r.Dur.Seconds() * float64(procs)
	}
	// Sum in sorted (user, bin) order so replays produce bit-identical
	// floating-point results — violation details must not differ between
	// two runs of the same seed.
	keys := make([]key, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].user != keys[j].user {
			return keys[i].user < keys[j].user
		}
		return keys[i].bin < keys[j].bin
	})
	out := map[string]float64{}
	for _, k := range keys {
		out[k.user] += bins[k] * d.Weight(usage.BinAge(now, time.Unix(k.bin, 0), binWidth))
	}
	return out
}
