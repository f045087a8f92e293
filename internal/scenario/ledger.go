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
// invariant: a flat list of completion records, compared against the USS
// histograms' decayed totals at every check. It deliberately shares no
// code with usage.Histogram beyond the published accounting rules: a job's
// full usage is attributed to the interval containing its completion time
// (which keeps closed intervals immutable for the incremental exchange),
// and decay ages are bin ages (usage.BinAge).
type Ledger struct {
	records []LedgerRecord
	// sums holds, per site, the per-(user, bin) sums of the records Totals
	// has seen, added in record order as a from-scratch pass would.
	sums map[int]*ledgerSums
}

type ledgerKey struct {
	user string
	bin  int64
}

type ledgerSums struct {
	width  time.Duration
	folded int
	cells  map[ledgerKey]float64
	keys   []ledgerKey
}

// Add appends a completion record.
func (l *Ledger) Add(r LedgerRecord) { l.records = append(l.records, r) }

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

// Totals computes one site's per-user decayed totals from first
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
	if l.sums == nil {
		l.sums = map[int]*ledgerSums{}
	}
	ls := l.sums[site]
	if ls == nil || ls.width != binWidth {
		ls = &ledgerSums{width: binWidth, cells: map[ledgerKey]float64{}}
		l.sums[site] = ls
	}
	added := false
	for _, r := range l.records[ls.folded:] {
		if r.Site != site || r.Dur <= 0 || r.User == "" {
			continue
		}
		procs := r.Procs
		if procs < 1 {
			procs = 1
		}
		k := ledgerKey{r.User, ledgerBinStart(r.Start.Add(r.Dur), binWidth)}
		if _, ok := ls.cells[k]; !ok {
			ls.keys = append(ls.keys, k)
			added = true
		}
		ls.cells[k] += r.Dur.Seconds() * float64(procs)
	}
	ls.folded = len(l.records)
	// Sum in sorted (user, bin) order so replays produce bit-identical
	// floating-point results — violation details must not differ between
	// two runs of the same seed.
	keys := ls.keys
	if added {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].user != keys[j].user {
				return keys[i].user < keys[j].user
			}
			return keys[i].bin < keys[j].bin
		})
	}
	out := map[string]float64{}
	for _, k := range keys {
		out[k.user] += ls.cells[k] * d.Weight(usage.BinAge(now, time.Unix(k.bin, 0), binWidth))
	}
	return out
}
