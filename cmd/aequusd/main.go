// Command aequusd runs one site's full Aequus service stack (PDS, USS, UMS,
// FCS, IRS) over HTTP — the deployment unit installed alongside each
// cluster's resource manager. Peers are other aequusd instances; usage is
// exchanged periodically through the USS layer. The server exposes
// Prometheus metrics at /metrics, liveness at /healthz, per-service
// readiness at /readyz and trace/drift introspection at /debug/aequus, and
// logs structured records via log/slog.
//
// Example:
//
//	aequusd -site hpc2n -listen :7470 -policy policy.txt \
//	        -peers http://other-site:7470 -half-life 168h -log-format json
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/policy"
	"repro/internal/services/httpapi"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/vector"
)

// Server-side timeouts of the API and -pprof listeners. There is
// deliberately no ReadTimeout: it would cut a large /usage/batch body.
const (
	// readHeaderTimeout bounds how long a client may take over its request
	// headers; without it a connection that never finishes them holds a
	// goroutine and a descriptor for as long as the peer likes.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections nobody is using; libaequus
	// and peer clients redial transparently.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer is an http.Server with the timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// options are aequusd's settings: cfg, the site's configuration, which
// every flag that is a core.SiteConfig field binds straight into, and the
// process settings around it.
type options struct {
	cfg core.SiteConfig
	// halfLife and projection become cfg.Decay and cfg.Projection.
	halfLife   time.Duration
	projection string

	listen, policyFile, peers, pprofAddr string
	logFormat, logLevel                  string
	exchangeEvery, exchDeadline          time.Duration

	dataDir, walSync string
	snapInterval     time.Duration

	traceBuffer, traceSample int
}

// bindFlags registers aequusd's flags on fs. A flag that sets the site's
// configuration takes its default from core.Defaults, the one place the
// deployed values are written.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{cfg: core.Defaults("local")}
	c := &o.cfg
	fs.StringVar(&c.Name, "site", c.Name, "site name")
	fs.StringVar(&o.listen, "listen", ":7470", "HTTP listen address")
	fs.StringVar(&o.policyFile, "policy", "", "policy file (text format: 'path share' lines)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated base URLs of peer aequusd instances")
	fs.BoolVar(&c.Contribute, "contribute", c.Contribute, "serve usage records to peers")
	fs.BoolVar(&c.UseGlobal, "use-global", c.UseGlobal, "consider global usage for prioritization")
	fs.StringVar(&o.projection, "projection", c.Projection.Name(), "vector projection: dictionary|bitwise|percental")
	exp, _ := c.Decay.(usage.ExponentialHalfLife)
	fs.DurationVar(&o.halfLife, "half-life", exp.HalfLife, "usage decay half-life (0 disables decay)")
	fs.DurationVar(&c.BinWidth, "bin-width", c.BinWidth, "usage histogram interval")
	fs.DurationVar(&o.exchangeEvery, "exchange-interval", time.Minute, "peer usage exchange period")
	// The refresh period is both cache TTLs: main copies it to the UMS's.
	fs.DurationVar(&c.FCSCacheTTL, "refresh-interval", c.FCSCacheTTL, "fairshare pre-calculation period")
	fs.Float64Var(&c.Fairshare.DistanceWeight, "distance-weight", c.Fairshare.DistanceWeight, "fairshare distance weight k")
	fs.Float64Var(&c.Fairshare.Resolution, "resolution", c.Fairshare.Resolution, "fairshare value resolution")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text|json")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

	fs.StringVar(&o.dataDir, "data-dir", "", "directory for the usage WAL and snapshots (empty = in-memory only; state is lost on restart)")
	fs.StringVar(&o.walSync, "wal-sync", "always", "WAL fsync policy: always (one fsync per commit, one per batch) | none (page cache only)")
	fs.DurationVar(&o.snapInterval, "snapshot-interval", 15*time.Minute, "how often to compact the WAL into a snapshot (0 disables periodic snapshots)")

	fs.IntVar(&c.FCSSourceRetry.MaxAttempts, "retry-max", c.FCSSourceRetry.MaxAttempts, "max attempts for idempotent remote calls (1 disables retries)")
	fs.IntVar(&c.PeerBreaker.Threshold, "breaker-threshold", c.PeerBreaker.Threshold, "consecutive failures that open a peer's circuit (0 disables breaking)")
	fs.DurationVar(&c.PeerBreaker.Cooldown, "breaker-cooldown", c.PeerBreaker.Cooldown, "how long an open circuit waits before a half-open probe")
	fs.DurationVar(&c.PeerTimeout, "peer-timeout", c.PeerTimeout, "per-peer pull timeout inside an exchange round")
	fs.DurationVar(&o.exchDeadline, "exchange-deadline", 30*time.Second, "deadline for a whole exchange round (0 = unbounded)")

	fs.IntVar(&o.traceBuffer, "trace-buffer", 4096, "span recorder ring-buffer capacity (0 disables tracing and /debug/aequus)")
	fs.IntVar(&o.traceSample, "trace-sample", 1, "record every Nth trace (1 = all)")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	cfg := o.cfg

	logger, err := telemetry.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		slog.Error("aequusd: bad logging flags", "err", err)
		os.Exit(1)
	}
	logger = logger.With(slog.String("site", cfg.Name))
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	cfg.Policy = policy.NewTree()
	if o.policyFile != "" {
		f, err := os.Open(o.policyFile)
		if err != nil {
			fatal("opening policy", err)
		}
		cfg.Policy, err = policy.ReadText(f)
		f.Close()
		if err != nil {
			fatal("parsing policy", err)
		}
	}
	cfg.PolicyFetcher = httpapi.PolicyFetcher(nil)

	proj, ok := vector.ByName(o.projection)
	if !ok {
		fatal("unknown projection", errors.New(o.projection))
	}
	cfg.Projection = proj
	// Half-life 0 means no decay at all. (Either way steady-state refreshes
	// are incremental: the pipeline carries usage sums at a reference
	// instant, which only move when a user's usage does.)
	cfg.Decay = usage.ExponentialHalfLife{HalfLife: o.halfLife}
	if o.halfLife <= 0 {
		cfg.Decay = usage.None{}
	}
	cfg.UMSCacheTTL = cfg.FCSCacheTTL

	telemetry.RegisterRuntimeMetrics(nil)
	if o.traceBuffer > 0 {
		cfg.Spans = span.NewRecorder(span.Config{Capacity: o.traceBuffer, SampleEvery: o.traceSample})
	}

	if o.dataDir != "" {
		syncPolicy, err := durability.ParseSyncPolicy(o.walSync)
		if err != nil {
			fatal("parsing -wal-sync", err)
		}
		cfg.Durable, err = durability.Open(durability.Options{
			Dir:   o.dataDir,
			Sync:  syncPolicy,
			Spans: cfg.Spans,
		})
		if err != nil {
			fatal("opening durable state", err)
		}
		defer cfg.Durable.Close()
		_, total := cfg.Durable.ReplayProgress()
		logger.Info("durable state opened",
			slog.String("dir", o.dataDir),
			slog.String("wal_sync", o.walSync),
			slog.Int64("replay_records", total)) // snapshot frames + WAL tail
	}

	// No Lib* field: the daemon never calls Site.Lib. A resource manager
	// links its own libaequus against this site's HTTP API.
	s, err := core.NewSite(cfg)
	if err != nil {
		fatal("assembling site", err)
	}
	if durable := cfg.Durable; durable != nil {
		// Replay the snapshot and the WAL tail in the background: the HTTP
		// server comes up immediately and peer pulls are served the
		// snapshot's local image (the pre-crash watermark), while /readyz
		// reports "recovering" until everything is applied and the first
		// post-replay fairshare pre-calculation has published.
		go func() {
			t0 := time.Now()
			if err := s.Recover(); err != nil {
				fatal("replaying WAL", err)
			}
			if err := s.Refresh(); err != nil {
				logger.Warn("post-recovery refresh failed", "err", err)
			}
			durable.MarkReady()
			logger.Info("recovery complete", slog.Duration("took", time.Since(t0)))
		}()
		go periodic(o.snapInterval, func() {
			if err := s.SnapshotDurable(); err != nil {
				logger.Warn("snapshot failed", "err", err)
			}
		})
	}
	for _, name := range []string{"pds", "uss", "ums", "fcs", "irs"} {
		logger.Info("service started", slog.String("service", name))
	}

	for _, peer := range splitList(o.peers) {
		// Peer pulls are idempotent (watermark-based), so they retry under
		// the site's retry policy; the per-peer breaker lives in the USS,
		// keyed by site, not here.
		s.ConnectPeer(httpapi.NewClientWith(peer, peer, httpapi.ClientOptions{Retry: cfg.FCSSourceRetry}))
		logger.Info("peering", slog.String("peer", peer))
	}

	if o.pprofAddr != "" {
		// The pprof handlers live on the DefaultServeMux; the service API
		// runs on its own mux, so profiling stays off the public port.
		go func() {
			logger.Info("pprof listening", slog.String("addr", o.pprofAddr))
			if err := newHTTPServer(o.pprofAddr, nil).ListenAndServe(); err != nil {
				logger.Warn("pprof server", "err", err)
			}
		}()
	}

	go periodic(o.exchangeEvery, func() {
		ctx := context.Background()
		if o.exchDeadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.exchDeadline)
			defer cancel()
		}
		if err := s.Exchange(ctx); err != nil {
			logger.Warn("exchange failed", "err", err)
		}
	})
	go periodic(cfg.FCSCacheTTL, func() {
		if err := s.Refresh(); err != nil {
			logger.Warn("refresh failed", "err", err)
		}
	})

	// A pre-computation three refresh periods old means two ticks were
	// missed: /readyz reports 503 from there.
	maxStale := 3 * cfg.FCSCacheTTL
	srv := httpapi.NewServerWith(s.PDS, s.USS, s.UMS, s.FCS, s.IRS, httpapi.ServerOptions{
		Log:           logger,
		ReadyMaxStale: maxStale,
		Spans:         cfg.Spans,
		Durability:    cfg.Durable,
	})
	logger.Info("serving",
		slog.String("listen", o.listen),
		slog.Bool("contribute", cfg.Contribute),
		slog.Bool("use_global", cfg.UseGlobal),
		slog.String("projection", proj.Name()),
		slog.Duration("ready_max_stale", maxStale))

	hs := newHTTPServer(o.listen, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("shutdown requested")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serving", err)
	}
	for _, name := range []string{"irs", "fcs", "ums", "uss", "pds"} {
		logger.Info("service stopped", slog.String("service", name))
	}
	logger.Info("shutdown complete")
}

func periodic(every time.Duration, fn func()) {
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		fn()
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
