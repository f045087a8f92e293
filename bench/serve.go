package main

// serve_mixed: two closed-loop clients, one keep-alive connection each, one
// per site, replay a seeded request stream while the driver goroutine runs
// the exchange/refresh chain beside them. Closed loop because resource
// managers block on their call-outs: a slow system receives less load.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/services/httpapi"
)

// Request mix of the clients, in percent; the rest is usage ingest.
const (
	mixLookup  = 70 // GET /fairshare?user=
	mixBatch   = 15 // POST /fairshare/batch
	batchUsers = 64
	ingestJobs = 16
	// Clients complete jobs for every tenth user only. At ~20k completions
	// per second an unrestricted draw touches all 100k users within one
	// histogram bin, and a peer pull of the open and previous bin (200k
	// records, ~20 MB) dies on the 8 MiB response cap; a tenth keeps the
	// pull near 2 MB. In any one hour only a fraction of accounts finish
	// jobs, so this is also the more plausible shape.
	ingestEvery = 10
)

// client is one closed-loop request source and its private tallies (merged
// after it stops, so the hot loop shares nothing but two atomics).
type client struct {
	st  *stack
	api *httpapi.Client
	rng *rng
	fp  *fingerprint

	lookupUS, batchUS, ingestUS []float64
	attempted, failed           int
	ledgerCoreSeconds           float64
	ledgerJobs                  int
}

func (r *runner) serve(cr *rng) {
	f, sp := r.fed, r.sp
	var (
		done    atomic.Int64 // completed requests, all clients
		timed   atomic.Bool
		stop    atomic.Bool
		trigger = make(chan struct{}, 1) // a pending maintenance round; one is enough
		wg      sync.WaitGroup
	)
	// The input fingerprint covers what every invocation surely issues: the
	// set-up inputs (frozen here, the number of maintenance rounds varies)
	// and each client's first quarter-share of the warm-up requests.
	r.fp.freeze()
	fpRequests := sp.warmupRequests / (2 * sp.clients)
	clients := make([]*client, sp.clients)
	for i := range clients {
		st := f.stacks[i%len(f.stacks)]
		c := &client{
			st:  st,
			api: httpapi.NewClientWith(st.url, st.name, httpapi.ClientOptions{HTTP: f.httpClient(nil), Metrics: st.reg}),
			rng: cr.split(uint64(i)), fp: newFingerprint(),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				if n == fpRequests {
					c.fp.freeze()
				}
				c.request(f.users, timed.Load())
				if done.Add(1)%int64(sp.block) == 0 {
					select {
					case trigger <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	// Warm-up: maintenance runs as it will later, nothing is recorded.
	n := 0
	for done.Load() < int64(sp.warmupRequests) {
		<-trigger
		r.chain(n, r.genRound(time.Now()))
		n++
	}
	r.col.setTimed(true)
	timed.Store(true)
	r.window = openHostWindow()
	start, startDone := time.Now(), done.Load()
	last := start
	for {
		<-trigger
		now := time.Now()
		r.col.add("round_ms", ms(now.Sub(last)))
		last = now
		r.chain(n, r.genRound(now))
		n++
		r.res.Rounds++
		if r.res.Rounds >= sp.minRounds && time.Since(start).Seconds() >= r.seconds {
			break
		}
	}
	elapsed, completed := time.Since(start), done.Load()-startDone
	stop.Store(true)
	wg.Wait()
	r.col.setTimed(false)

	r.col.samples["throughput_rps"] = []float64{float64(completed) / elapsed.Seconds()}
	for _, c := range clients {
		r.col.samples["lookup_us"] = append(r.col.samples["lookup_us"], c.lookupUS...)
		r.col.samples["batch_us"] = append(r.col.samples["batch_us"], c.batchUS...)
		r.col.samples["ingest_us"] = append(r.col.samples["ingest_us"], c.ingestUS...)
		r.res.Attempted += c.attempted
		r.res.Failed += c.failed
		if c.failed > 0 {
			r.note("client of %s: %d of %d requests failed", c.st.name, c.failed, c.attempted)
		}
		c.st.ledgerCoreSeconds += c.ledgerCoreSeconds
		c.st.ledgerJobs += c.ledgerJobs
	}
	inputs := newFingerprint()
	inputs.u64(r.fp.h.Sum64())
	for _, c := range clients {
		inputs.u64(c.fp.h.Sum64())
	}
	r.fp = inputs
}

// request issues the client's next request and, in the timed part, keeps
// its latency.
func (c *client) request(users []string, timed bool) {
	kind := c.rng.intn(100)
	c.fp.u64(uint64(kind))
	var err error
	var lat *[]float64
	t0 := time.Now()
	switch {
	case kind < mixLookup:
		u := c.rng.intn(len(users))
		c.fp.u64(uint64(u))
		_, err = c.api.Priority(users[u])
		lat = &c.lookupUS
	case kind < mixLookup+mixBatch:
		batch := make([]string, batchUsers)
		for i := range batch {
			u := c.rng.intn(len(users))
			c.fp.u64(uint64(u))
			batch[i] = users[u]
		}
		t0 = time.Now()
		_, err = c.api.PriorityBatch(batch)
		lat = &c.batchUS
	default:
		jobs := make([]job, ingestJobs)
		cs := 0.0
		for i := range jobs {
			u := c.rng.intn(len(users)/ingestEvery) * ingestEvery
			jobs[i] = genJob(c.rng, c.fp, u, t0, time.Minute)
			cs += jobs[i].coreSeconds()
		}
		reports := wireReports(users, jobs)
		t0 = time.Now()
		err = c.api.ReportJobBatch(reports)
		if err == nil {
			c.ledgerCoreSeconds += cs
			c.ledgerJobs += len(jobs)
		}
		lat = &c.ingestUS
	}
	d := time.Since(t0)
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	if timed {
		*lat = append(*lat, float64(d)/float64(time.Microsecond))
	}
}
