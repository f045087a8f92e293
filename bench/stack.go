package main

// Building the system under test: real core.Site stacks with aequusd's
// default configuration, served by httpapi on loopback listeners and peered
// through httpapi.Client, exactly as separate daemons would be — only in
// one process, so that one driver goroutine can step the whole chain.
//
// The traced pass observes the layers from outside only, by decorating
// interfaces the system already accepts: the uss.Peer handed to
// Site.ConnectPeer, the libaequus.FairshareSource handed to libaequus.New,
// and the http.RoundTripper under the peer clients.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/fairshare"
	"repro/internal/libaequus"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/services/httpapi"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/vector"
	"repro/internal/wire"
)

// aequusd's flag defaults (cmd/aequusd/main.go). The benchmark measures the
// default configuration, so these are constants here, not options.
const (
	defHalfLife      = 7 * 24 * time.Hour
	defBinWidth      = time.Hour
	defRefreshEvery  = time.Minute
	defLibTTL        = 30 * time.Second
	defPeerTimeout   = 5 * time.Second
	defBreakerThresh = 5
	defBreakerCool   = 30 * time.Second
	defTraceBuffer   = 4096
	defSnapshotEvery = 15 * time.Minute
)

var defRetry = resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

// siteConfig is the core.SiteConfig aequusd assembles from its defaults.
func siteConfig(name string, pol *policy.Tree, clock simclock.Clock, reg *telemetry.Registry,
	spans *span.Recorder, log *durability.Log) core.SiteConfig {
	return core.SiteConfig{
		Name:            name,
		Policy:          pol,
		Clock:           clock,
		BinWidth:        defBinWidth,
		Decay:           usage.ExponentialHalfLife{HalfLife: defHalfLife},
		Contribute:      true,
		UseGlobal:       true,
		Projection:      vector.Percental{},
		Fairshare:       fairshare.Config{DistanceWeight: 0.5, Resolution: 10000},
		UMSCacheTTL:     defRefreshEvery,
		FCSCacheTTL:     defRefreshEvery,
		LibCacheTTL:     defLibTTL,
		PolicyFetcher:   httpapi.PolicyFetcher(nil),
		Metrics:         reg,
		PeerTimeout:     defPeerTimeout,
		PeerBreaker:     resilience.BreakerConfig{Threshold: defBreakerThresh, Cooldown: defBreakerCool},
		LibRetry:        defRetry,
		LibStaleIfError: true,
		FCSSourceRetry:  defRetry,
		Spans:           spans,
		Durable:         log,
	}
}

// stack is one site as deployed: the service stack, its HTTP face and the
// benchmark's own client-side handles on it.
type stack struct {
	idx  int
	name string
	site *core.Site
	reg  *telemetry.Registry
	log  *durability.Log
	dir  string // data dir of a durable site
	url  string

	listener net.Listener
	server   *http.Server

	// api is the benchmark's connection to this site (ingest, lookups);
	// lib is the resource manager's libaequus in front of it. In-process
	// workloads use site.USS and site.Lib directly instead.
	api *httpapi.Client
	lib *libaequus.Client
	// queue is the user list of one re-prioritization pass.
	queue []string

	// openStage is the ID of the stage span currently running on this site;
	// decorator spans name it as their parent.
	openStage atomic.Int64

	// ledger is the generator's own account of what this site accepted.
	ledgerCoreSeconds float64
	ledgerJobs        int
}

// federation is a set of peered stacks on one clock.
type federation struct {
	clock  simclock.Clock
	sim    *simclock.Sim // nil on the real clock
	pol    *policy.Tree
	users  []string
	stacks []*stack
	tmpDir string

	tr    *tracer
	col   *collector
	round atomic.Int64 // the round in progress, for spans recorded by decorators

	clients []*http.Client
	serving sync.WaitGroup
}

// simEpoch is where simulated time starts; history fills the days before.
var simEpoch = time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)

// quietLog mirrors aequusd's default level (info) without interleaving
// service chatter with the benchmark's own output.
func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// newFederation builds, serves and peers sp.sites stacks. Nothing is
// ingested or computed yet.
func newFederation(sp spec, pol *policy.Tree, users []string, tr *tracer, col *collector, outDir string) (*federation, error) {
	f := &federation{pol: pol, users: users, tr: tr, col: col}
	if sp.realClock {
		f.clock = simclock.Real{}
	} else {
		f.sim = simclock.NewSim(simEpoch)
		f.clock = f.sim
	}
	if sp.durable {
		dir, err := os.MkdirTemp(outDir, "data-"+sp.name+"-")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		f.tmpDir = dir
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	for i := 0; i < sp.sites; i++ {
		st := &stack{idx: i, name: fmt.Sprintf("site%d", i), reg: telemetry.NewRegistry()}
		f.stacks = append(f.stacks, st)
		spans := span.NewRecorder(span.Config{Capacity: defTraceBuffer, SampleEvery: 1})
		if sp.durable {
			st.dir = filepath.Join(f.tmpDir, st.name)
			log, err := durability.Open(durability.Options{Dir: st.dir, Sync: durability.SyncAlways, Metrics: st.reg, Spans: spans})
			if err != nil {
				return nil, fmt.Errorf("%s: opening durable state: %w", st.name, err)
			}
			st.log = log
		}
		site, err := core.NewSite(siteConfig(st.name, pol, f.clock, st.reg, spans, st.log))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
		st.site = site
		if err := site.Recover(); err != nil { // unblocks commits; nothing to replay yet
			return nil, fmt.Errorf("%s: recover: %w", st.name, err)
		}
		if sp.inproc {
			st.lib = site.Lib
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("%s: listen: %w", st.name, err)
		}
		st.listener, st.url = l, "http://"+l.Addr().String()
		st.server = &http.Server{Handler: httpapi.NewServerWith(site.PDS, site.USS, site.UMS, site.FCS, site.IRS,
			httpapi.ServerOptions{
				Registry:      st.reg,
				Log:           quietLog(),
				ReadyMaxStale: 3 * defRefreshEvery,
				Clock:         f.clock,
				Spans:         spans,
				Durability:    st.log,
			})}
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = st.server.Serve(l) // returns ErrServerClosed on Shutdown
		}()
	}
	if sp.inproc {
		ok = true
		return f, nil
	}

	for _, st := range f.stacks {
		// The benchmark's own connection: one keep-alive connection, no
		// retries (a retried ingest would double count, a retried lookup
		// would hide a failure the benchmark must report).
		st.api = httpapi.NewClientWith(st.url, st.name, httpapi.ClientOptions{HTTP: f.httpClient(nil), Metrics: st.reg})
		var src libaequus.FairshareSource = st.api
		if tr != nil {
			src = &tracedSource{inner: st.api, st: st, f: f}
		}
		st.lib = libaequus.New(libaequus.Config{
			Site: st.name, CacheTTL: defLibTTL, Clock: f.clock, Metrics: st.reg,
			Retry: defRetry, StaleIfError: true,
		}, src, nil, nil)

		for _, peer := range f.stacks {
			if peer == st {
				continue
			}
			var counter *countingTransport
			if tr != nil {
				counter = &countingTransport{}
			}
			// As aequusd peers: idempotent pulls retry, the breaker lives in the USS.
			client := httpapi.NewClientWith(peer.url, peer.name, httpapi.ClientOptions{
				HTTP: f.httpClient(counter), Retry: defRetry, Metrics: st.reg,
			})
			if tr != nil {
				st.site.ConnectPeer(&tracedPeer{Peer: client, st: st, f: f, bytes: counter})
			} else {
				st.site.ConnectPeer(client)
			}
		}
	}
	ok = true
	return f, nil
}

// httpClient returns a client with aequusd's transport settings, optionally
// with a byte counter under it, and remembers it for shutdown.
func (f *federation) httpClient(counter *countingTransport) *http.Client {
	hc := httpapi.NewHTTPClient(0)
	if counter != nil {
		counter.base = hc.Transport
		hc.Transport = counter
	}
	f.clients = append(f.clients, hc)
	return hc
}

// close shuts servers down, waits for them, drains client connections,
// closes durable logs and removes data dirs. Safe on a half-built
// federation.
func (f *federation) close() {
	for _, st := range f.stacks {
		if st.server != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = st.server.Shutdown(ctx)
			cancel()
		} else if st.listener != nil {
			_ = st.listener.Close()
		}
	}
	f.serving.Wait()
	for _, hc := range f.clients {
		hc.CloseIdleConnections()
	}
	for _, st := range f.stacks {
		if st.log != nil {
			_ = st.log.Close() // ErrClosed after the recovery probe closed it already
		}
	}
	if f.tmpDir != "" {
		_ = os.RemoveAll(f.tmpDir)
	}
}

// tracedPeer times every pull the USS makes through it: wire, remote serve
// and decode. uss.Service asserts no optional interface on its peers, so
// embedding the interface forwards everything there is.
type tracedPeer struct {
	uss.Peer
	st    *stack
	f     *federation
	bytes *countingTransport
}

func (p *tracedPeer) RecordsSince(ctx context.Context, t time.Time) ([]usage.Record, error) {
	id := p.f.tr.start("httpapi.pull", int(p.st.openStage.Load()), int(p.f.round.Load()), p.st.idx)
	before := p.bytes.n.Load()
	t0 := time.Now()
	recs, err := p.Peer.RecordsSince(ctx, t)
	d := time.Since(t0)
	p.f.tr.end(id)
	p.f.col.add("httpapi.pull_ms", ms(d))
	p.f.col.add("httpapi.pull_bytes", float64(p.bytes.n.Load()-before))
	return recs, err
}

// tracedSource times the round trips libaequus makes to the FCS. libaequus
// type-asserts BatchFairshareSource on its source, so both methods are
// forwarded explicitly: dropping PriorityBatch would silently turn one
// batch call into 2000 single lookups.
type tracedSource struct {
	inner interface {
		libaequus.FairshareSource
		libaequus.BatchFairshareSource
	}
	st *stack
	f  *federation
}

func (s *tracedSource) Priority(user string) (wire.FairshareResponse, error) {
	return s.inner.Priority(user)
}

func (s *tracedSource) PriorityBatch(users []string) (wire.FairshareBatchResponse, error) {
	id := s.f.tr.start("httpapi.fairshare_batch", int(s.st.openStage.Load()), int(s.f.round.Load()), s.st.idx)
	t0 := time.Now()
	resp, err := s.inner.PriorityBatch(users)
	d := time.Since(t0)
	s.f.tr.end(id)
	s.f.col.add("httpapi.fairshare_batch_ms", ms(d))
	return resp, err
}

// countingTransport counts response-body bytes read through it.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	}
	return resp, err
}

// CloseIdleConnections forwards what http.Client.CloseIdleConnections
// type-asserts on its transport.
func (t *countingTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// reopen brings a closed durable site back the way aequusd restarts: Open,
// NewSite (adopts the snapshot), Recover (replays the WAL tail), Refresh.
func reopen(st *stack, pol *policy.Tree, clock simclock.Clock) (*core.Site, *durability.Log, error) {
	reg := telemetry.NewRegistry()
	log, err := durability.Open(durability.Options{Dir: st.dir, Sync: durability.SyncAlways, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	site, err := core.NewSite(siteConfig(st.name, pol, clock, reg, nil, log))
	if err == nil {
		err = site.Recover()
	}
	if err == nil {
		err = site.Refresh()
	}
	if err != nil {
		return nil, nil, errors.Join(err, log.Close())
	}
	log.MarkReady()
	return site, log, nil
}
