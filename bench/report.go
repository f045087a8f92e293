package main

// Metric tables and result assembly. The names are the contract: every
// later performance or simplicity claim in this repo quotes them.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// e2eDef is one end-to-end metric: what a user of the system sees.
type e2eDef struct {
	name, unit, better string
	// bound is the share of the baseline's median by which the metric may
	// worsen before -compare (and the driver, for the gated ones) rejects.
	bound float64
	// gated metrics exist on all four workloads and are listed under
	// end_to_end in BENCHMARK.json; the others apply to some workloads only
	// and are gated by -compare alone.
	gated bool
}

// The timing bounds are 25%, not the 10% one would like: on the 2-vCPU
// shared sandbox this was sized on, ten back-to-back runs of unchanged code
// spread (first to third quartile over median) by 10-16% in a quiet quarter
// of an hour and by up to 26% in a busy one, with no steal reported; more
// rounds and more warm-up did not tighten it (README.md, "How steady").
// A claim finer than the bound needs paired runs, not this gate.
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"round_ms", "ms", "lower", 0.25, true},
	{"refresh_ms", "ms", "lower", 0.25, true},
	{"propagation_local_ms", "ms", "lower", 0.25, true},
	{"heap_live_mb", "MB", "lower", 0.10, true},
	{"propagation_peer_ms", "ms", "lower", 0.25, false},
	{"recovery_s", "s", "lower", 0.25, false},
	{"throughput_rps", "1/s", "higher", 0.25, false},
	{"lookup_p50_us", "us", "lower", 0.25, false},
	{"ingest_p50_us", "us", "lower", 0.25, false},
}

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name, unit, better string
}

var perLayer = []layerDef{
	// Stage spans, in chain order.
	{"httpapi.ingest_ms", "ms", "lower"},
	{"httpapi.ingest_jobs", "count", "higher"},
	{"httpapi.ingest_alloc_mb", "MB", "lower"},
	{"uss.exchange_ms", "ms", "lower"},
	{"uss.exchange_records", "count", "lower"},
	{"uss.exchange_self_ms", "ms", "lower"},
	{"uss.exchange_alloc_mb", "MB", "lower"},
	{"httpapi.pull_ms", "ms", "lower"},
	{"httpapi.pull_bytes", "B", "lower"},
	{"httpapi.pull_bytes_max", "B", "lower"},
	{"ums.totals_ms", "ms", "lower"},
	{"ums.users", "count", "higher"},
	{"ums.totals_alloc_mb", "MB", "lower"},
	{"fcs.refresh_ms", "ms", "lower"},
	{"fcs.refresh_full", "count", "lower"},
	{"fcs.refresh_incremental", "count", "higher"},
	{"fcs.dirty_users", "count", "lower"},
	{"fcs.incremental_ratio", "ratio", "higher"},
	{"fcs.refresh_alloc_mb", "MB", "lower"},
	{"libaequus.batch_cold_ms", "ms", "lower"},
	{"httpapi.fairshare_batch_ms", "ms", "lower"},
	{"libaequus.self_ms", "ms", "lower"},
	{"libaequus.batch_cold_alloc_mb", "MB", "lower"},
	{"libaequus.batch_warm_ms", "ms", "lower"},
	{"libaequus.batch_warm_alloc_mb", "MB", "lower"},
	{"libaequus.hit_ratio", "ratio", "higher"},
	{"durability.snapshot_ms", "ms", "lower"},
	{"durability.fsyncs_per_round", "count", "lower"},
	{"durability.wal_bytes_per_job", "B", "lower"},
	{"stage_sum_share", "ratio", "higher"},
	// Standalone probes.
	{"uss.global_totals_ms", "ms", "lower"},
	{"uss.local_totals_ms", "ms", "lower"},
	{"uss.records_since_ms", "ms", "lower"},
	{"usage.ingest_batch_ms", "ms", "lower"},
	{"durability.commit_ms", "ms", "lower"},
	{"durability.replay_ms", "ms", "lower"},
	{"fairshare.compute_ms", "ms", "lower"},
	{"fairshare.index_ms", "ms", "lower"},
	{"fairshare.apply_sparse_ms", "ms", "lower"},
	{"fcs.priority_ns", "ns", "lower"},
	{"fcs.priority_batch_us", "us", "lower"},
	// Host diagnostics and the traced run's own round time.
	{"host.gomaxprocs", "count", "higher"},
	{"host.steal_share", "ratio", "lower"},
	{"host.cpu_s_per_round", "s", "lower"},
	{"host.peak_rss_mb", "MB", "lower"},
	{"trace.round_ms", "ms", "lower"},
	// End-to-end metrics that exist on some workloads only (0 elsewhere).
	{"propagation_peer_ms", "ms", "lower"},
	{"recovery_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"lookup_p50_us", "us", "lower"},
	{"ingest_p50_us", "us", "lower"},
}

// stageNames are the spans whose durations must add up to the round.
var stageNames = []string{"httpapi.ingest", "uss.exchange", "ums.totals", "fcs.refresh",
	"libaequus.batch_cold", "libaequus.batch_warm", "durability.snapshot"}

// noisySteal is the steal share above which a run is flagged.
const noisySteal = 0.02

// report turns the collector into the result's metric maps.
func (r *runner) report(setupS, heapMB, steal, cpuS float64, recovery []float64) {
	c, res := r.col, r.res
	res.Fingerprint = r.fp.String()
	if r.fed.sim != nil {
		res.StateFingerprint = r.state.String()
	}
	res.Noisy = steal > noisySteal

	// End-to-end: whatever applies to this workload.
	series := map[string][]float64{
		"round_ms":             c.samples["round_ms"],
		"refresh_ms":           c.samples["refresh_ms"],
		"propagation_local_ms": c.samples["propagation_local_ms"],
		"propagation_peer_ms":  c.samples["propagation_peer_ms"],
		"recovery_s":           recovery,
		"throughput_rps":       c.samples["throughput_rps"],
		"lookup_p50_us":        c.samples["lookup_us"],
		"setup_s":              {setupS},
		"heap_live_mb":         {heapMB},
	}
	if r.sp.clients > 0 {
		series["ingest_p50_us"] = c.samples["ingest_us"]
	}
	for _, def := range endToEnd {
		if s := series[def.name]; len(s) > 0 {
			sum := summarize(s, def.unit)
			sum.Better, sum.Bound = def.better, def.bound
			res.EndToEnd[def.name] = sum
		}
	}
	if r.tr == nil {
		// Counts the smoke test compares between the two passes.
		res.PerLayer["fcs.refresh_full"] = scalar(c.counts["fcs.refresh_full"], "count")
		res.PerLayer["fcs.refresh_incremental"] = scalar(c.counts["fcs.refresh_incremental"], "count")
		return
	}

	// Per-layer: derived series first, then one summary per defined name.
	first := r.round - res.Rounds + 1 // the timed rounds are the last res.Rounds ones
	c.samples["uss.exchange_self_ms"] = r.tr.selfTimes("uss.exchange", "httpapi.pull", first)
	c.samples["libaequus.self_ms"] = r.tr.selfTimes("libaequus.batch_cold", "httpapi.fairshare_batch", first)
	c.samples["httpapi.pull_bytes_max"] = []float64{c.max("httpapi.pull_bytes")}
	c.samples["trace.round_ms"] = c.samples["round_ms"]
	c.samples["stage_sum_share"] = r.stageSumShares(first)
	if share := summarize(c.samples["stage_sum_share"], "").Value; r.sp.clients == 0 {
		// On the sequential workloads the stages are the round: spans that
		// do not add up to it within 5% mean a stage went unmeasured.
		r.attempt()
		if share < 0.95 || share > 1.05 {
			r.fail("stage spans cover %.3f of the round, want within 5%% of 1", share)
		}
	}
	full, incr := c.counts["fcs.refresh_full"], c.counts["fcs.refresh_incremental"]
	scalars := map[string]float64{
		"fcs.refresh_full":        full,
		"fcs.refresh_incremental": incr,
		"host.gomaxprocs":         float64(runtime.GOMAXPROCS(0)),
		"host.steal_share":        steal,
		"host.cpu_s_per_round":    cpuS / float64(max(res.Rounds, 1)),
		"host.peak_rss_mb":        peakRSSMB(),
	}
	if full+incr > 0 {
		scalars["fcs.incremental_ratio"] = incr / (full + incr)
	}
	var hits, misses float64
	for _, st := range r.fed.stacks {
		s := st.lib.Stats()
		hits += float64(s.FairshareHits)
		misses += float64(s.FairshareMisses)
	}
	if hits+misses > 0 {
		scalars["libaequus.hit_ratio"] = hits / (hits + misses)
	}
	for _, def := range perLayer {
		switch {
		case len(c.samples[def.name]) > 0:
			res.PerLayer[def.name] = summarize(c.samples[def.name], def.unit)
		case res.EndToEnd[def.name].N > 0:
			e := res.EndToEnd[def.name]
			e.Better, e.Bound = "", 0
			res.PerLayer[def.name] = e
		default:
			res.PerLayer[def.name] = scalar(scalars[def.name], def.unit) // 0 where the layer is not exercised
		}
	}
}

// stageSumShares returns, per round from fromRound on, the share of the
// round's wall time covered by its stage spans. The acceptance criterion
// wants it within 5% of 1 on the sequential workloads.
func (r *runner) stageSumShares(fromRound int) []float64 {
	stage := map[string]bool{}
	for _, n := range stageNames {
		stage[n] = true
	}
	sum := map[int]int64{}
	for _, s := range r.tr.spans {
		if stage[s.Name] {
			sum[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range r.tr.spans {
		if s.Name == "round" && s.Round >= fromRound && s.End > s.Start {
			out = append(out, float64(sum[s.ID])/float64(s.End-s.Start))
		}
	}
	return out
}

// print writes one result as a table: every metric by name, with unit.
func (res *result) print(w io.Writer) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s)  rounds=%d  inputs=%s", res.Workload, mode, res.Rounds, res.Fingerprint)
	if res.StateFingerprint != "" {
		fmt.Fprintf(w, "  priorities=%s", res.StateFingerprint)
	}
	if res.Noisy {
		fmt.Fprint(w, "  NOISY(steal>2%)")
	}
	fmt.Fprintln(w)
	printMetrics(w, res.EndToEnd)
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (%d failed of %d attempted)\n", "failed_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	if res.Traced {
		fmt.Fprintln(w, "  -- per layer")
		printMetrics(w, res.PerLayer)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printMetrics(w io.Writer, m map[string]summary) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := m[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", n, s.Value, s.Unit, s.N)
		if s.TailP > 0 {
			line += fmt.Sprintf("  p%s=%.6g", strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", s.TailP*100), "0"), "."), s.Tail)
		}
		fmt.Fprintln(w, line)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
