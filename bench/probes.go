package main

// Standalone probes: single layers timed in isolation on the final state of
// a traced run, a few repetitions each. They are not part of the round and
// do not sum to anything; they answer "what does this layer cost at this
// size" so that a stage's time can be attributed below the stage.

import (
	"context"
	"os"
	"time"

	"repro/internal/durability"
	"repro/internal/fairshare"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// probe times fn under the given metric name: five repetitions, three at
// 1M users, where one pass over all probes already takes five seconds.
func (r *runner) probe(name string, fn func()) {
	reps := 5
	if len(r.fed.users) >= 1_000_000 {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		r.col.add(name, ms(time.Since(t0)))
	}
}

func (r *runner) probes() {
	r.fp.freeze()
	r.col.setTimed(true)
	defer r.col.setTimed(false)
	f, sp := r.fed, r.sp
	st := r.observer
	now := f.clock.Now()
	decay := st.site.UMS.Decay()

	// USS: what the UMS asks for on every refresh, and what a peer's pull
	// asks for (the open bin and the one before it).
	var totals map[string]float64
	r.probe("uss.global_totals_ms", func() { totals = st.site.USS.GlobalTotals(now, decay) })
	r.probe("uss.local_totals_ms", func() { st.site.USS.LocalTotals(now, decay) })
	since := now.Truncate(defBinWidth).Add(-defBinWidth)
	r.probe("uss.records_since_ms", func() { _, _ = st.site.USS.RecordsSince(context.Background(), since) })

	// One ingest request's batch, as records and as a WAL mutation.
	batch := make([]job, max(sp.jobsPerSite/sp.postsPerSite, ingestJobs))
	for i := range batch {
		batch[i] = genJob(r.jobRNG, r.fp, r.jobRNG.intn(len(f.users)), now, time.Minute)
	}
	recs := make([]usage.Record, len(batch))
	ops := make([]usage.BinOp, len(batch))
	hist := st.site.USS.LocalHistogram()
	for i, j := range batch {
		recs[i] = usage.Record{User: f.users[j.user], Site: st.name, IntervalStart: j.end, CoreSeconds: j.coreSeconds()}
		ops[i] = usage.BinOp{User: f.users[j.user], Start: hist.AlignStart(j.end), Value: j.coreSeconds()}
	}
	r.probe("usage.ingest_batch_ms", func() { hist.IngestBatch(recs) })
	r.durabilityProbes(ops)

	// Fairshare engine over the final totals: the full rebuild the refresh
	// runs today, and the sparse apply it would run if deltas stayed sparse.
	pol := st.site.PDS.Policy()
	cfg := fairshare.Config{DistanceWeight: 0.5, Resolution: 10000}
	var tree *fairshare.Tree
	var index *fairshare.Index
	r.probe("fairshare.compute_ms", func() { tree = fairshare.Compute(pol, totals, cfg) })
	r.probe("fairshare.index_ms", func() { index = fairshare.NewIndex(tree) })
	engine := fairshare.NewRecalc(tree, index)
	dirty := len(sp.ingestSites) * sp.jobsPerSite
	bump := 0.0
	r.probe("fairshare.apply_sparse_ms", func() {
		bump += 3600
		delta := make(map[string]float64, dirty)
		for i := 0; i < dirty; i++ {
			u := f.users[(i*7919)%len(f.users)]
			delta[u] = totals[u] + bump
		}
		if _, _, _, err := engine.Apply(delta); err != nil {
			r.fail("probe: sparse apply: %v", err)
		}
	})

	// In-process reads: the HTTP figures minus these are httpapi's own time.
	const lookups = 20000
	r.probe("fcs.priority_ns", func() {
		for i := 0; i < lookups; i++ {
			_, _ = st.site.FCS.Priority(st.queue[i%len(st.queue)])
		}
	})
	r.col.samples["fcs.priority_ns"] = scale(r.col.samples["fcs.priority_ns"], 1e6/lookups)
	r.probe("fcs.priority_batch_us", func() { _, _ = st.site.FCS.PriorityBatch(st.queue) })
	r.col.samples["fcs.priority_batch_us"] = scale(r.col.samples["fcs.priority_batch_us"], 1e3)
}

func scale(v []float64, k float64) []float64 {
	for i := range v {
		v[i] *= k
	}
	return v
}

// durabilityProbes commits a round-sized mutation into a scratch log, then
// times reopening and replaying that log.
func (r *runner) durabilityProbes(ops []usage.BinOp) {
	dir, err := os.MkdirTemp(r.outDir, "probe-wal-")
	if err != nil {
		r.fail("probe: scratch dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	open := func() *durability.Log {
		log, err := durability.Open(durability.Options{Dir: dir, Sync: durability.SyncAlways, Metrics: telemetry.NewRegistry()})
		if err != nil {
			r.fail("probe: opening scratch log: %v", err)
			return nil
		}
		return log
	}
	log := open()
	if log == nil {
		return
	}
	_ = log.Replay(func(*usage.Mutation) error { return nil })
	mut := &usage.Mutation{Kind: usage.MutLocalBatch, Ops: ops}
	r.probe("durability.commit_ms", func() {
		if err := log.Commit(mut, func() {}); err != nil {
			r.fail("probe: commit: %v", err)
		}
	})
	_ = log.Close()
	r.probe("durability.replay_ms", func() {
		if log := open(); log != nil {
			_ = log.Replay(func(*usage.Mutation) error { return nil })
			_ = log.Close()
		}
	})
}
