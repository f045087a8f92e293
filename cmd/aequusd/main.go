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
	"repro/internal/fairshare"
	"repro/internal/policy"
	"repro/internal/resilience"
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

func main() {
	var (
		site          = flag.String("site", "local", "site name")
		listen        = flag.String("listen", ":7470", "HTTP listen address")
		policyFile    = flag.String("policy", "", "policy file (text format: 'path share' lines)")
		peers         = flag.String("peers", "", "comma-separated base URLs of peer aequusd instances")
		contribute    = flag.Bool("contribute", true, "serve usage records to peers")
		useGlobal     = flag.Bool("use-global", true, "consider global usage for prioritization")
		projection    = flag.String("projection", "percental", "vector projection: dictionary|bitwise|percental")
		halfLife      = flag.Duration("half-life", 7*24*time.Hour, "usage decay half-life (0 disables decay)")
		binWidth      = flag.Duration("bin-width", time.Hour, "usage histogram interval")
		exchangeEvery = flag.Duration("exchange-interval", time.Minute, "peer usage exchange period")
		refreshEvery  = flag.Duration("refresh-interval", time.Minute, "fairshare pre-calculation period")
		k             = flag.Float64("distance-weight", 0.5, "fairshare distance weight k")
		resolution    = flag.Float64("resolution", 10000, "fairshare value resolution")
		logFormat     = flag.String("log-format", "text", "log output format: text|json")
		logLevel      = flag.String("log-level", "info", "log level: debug|info|warn|error")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		dataDir      = flag.String("data-dir", "", "directory for the usage WAL and snapshots (empty = in-memory only; state is lost on restart)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always (one fsync per commit, one per batch) | none (page cache only)")
		snapInterval = flag.Duration("snapshot-interval", 15*time.Minute, "how often to compact the WAL into a snapshot (0 disables periodic snapshots)")

		retryMax      = flag.Int("retry-max", 3, "max attempts for idempotent remote calls (1 disables retries)")
		breakThresh   = flag.Int("breaker-threshold", 5, "consecutive failures that open a peer's circuit (0 disables breaking)")
		breakCooldown = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open circuit waits before a half-open probe")
		peerTimeout   = flag.Duration("peer-timeout", 5*time.Second, "per-peer pull timeout inside an exchange round")
		exchDeadline  = flag.Duration("exchange-deadline", 30*time.Second, "deadline for a whole exchange round (0 = unbounded)")

		traceBuffer = flag.Int("trace-buffer", 4096, "span recorder ring-buffer capacity (0 disables tracing and /debug/aequus)")
		traceSample = flag.Int("trace-sample", 1, "record every Nth trace (1 = all)")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		slog.Error("aequusd: bad logging flags", "err", err)
		os.Exit(1)
	}
	logger = logger.With(slog.String("site", *site))
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	pol := policy.NewTree()
	if *policyFile != "" {
		f, err := os.Open(*policyFile)
		if err != nil {
			fatal("opening policy", err)
		}
		pol, err = policy.ReadText(f)
		f.Close()
		if err != nil {
			fatal("parsing policy", err)
		}
	}

	proj, ok := vector.ByName(*projection)
	if !ok {
		fatal("unknown projection", errors.New(*projection))
	}

	// Backoff starts at resilience.DefaultBaseDelay and doubles up to
	// resilience.DefaultMaxDelay: one value in use everywhere, so not flags.
	retry := resilience.RetryPolicy{MaxAttempts: *retryMax}
	telemetry.RegisterRuntimeMetrics(nil)
	var spans *span.Recorder
	if *traceBuffer > 0 {
		spans = span.NewRecorder(span.Config{Capacity: *traceBuffer, SampleEvery: *traceSample})
	}
	// Half-life 0 means no decay at all. (Either way steady-state refreshes
	// are incremental: the pipeline carries usage sums at a reference
	// instant, which only move when a user's usage does.)
	var decay usage.Decay = usage.ExponentialHalfLife{HalfLife: *halfLife}
	if *halfLife <= 0 {
		decay = usage.None{}
	}

	var durable *durability.Log
	if *dataDir != "" {
		syncPolicy, err := durability.ParseSyncPolicy(*walSync)
		if err != nil {
			fatal("parsing -wal-sync", err)
		}
		durable, err = durability.Open(durability.Options{
			Dir:   *dataDir,
			Sync:  syncPolicy,
			Spans: spans,
		})
		if err != nil {
			fatal("opening durable state", err)
		}
		defer durable.Close()
		_, total := durable.ReplayProgress()
		logger.Info("durable state opened",
			slog.String("dir", *dataDir),
			slog.String("wal_sync", *walSync),
			slog.Int64("replay_records", total)) // snapshot frames + WAL tail
	}

	// No Lib* field: the daemon never calls Site.Lib. A resource manager
	// links its own libaequus against this site's HTTP API.
	s, err := core.NewSite(core.SiteConfig{
		Name:          *site,
		Policy:        pol,
		BinWidth:      *binWidth,
		Decay:         decay,
		Contribute:    *contribute,
		UseGlobal:     *useGlobal,
		Projection:    proj,
		Fairshare:     fairshare.Config{DistanceWeight: *k, Resolution: *resolution},
		UMSCacheTTL:   *refreshEvery,
		FCSCacheTTL:   *refreshEvery,
		PolicyFetcher: httpapi.PolicyFetcher(nil),
		PeerTimeout:   *peerTimeout,
		PeerBreaker: resilience.BreakerConfig{
			Threshold: *breakThresh,
			Cooldown:  *breakCooldown,
		},
		FCSSourceRetry: retry,
		Spans:          spans,
		Durable:        durable,
	})
	if err != nil {
		fatal("assembling site", err)
	}
	if durable != nil {
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
		go periodic(*snapInterval, func() {
			if err := s.SnapshotDurable(); err != nil {
				logger.Warn("snapshot failed", "err", err)
			}
		})
	}
	for _, name := range []string{"pds", "uss", "ums", "fcs", "irs"} {
		logger.Info("service started", slog.String("service", name))
	}

	for _, peer := range splitList(*peers) {
		// Peer pulls are idempotent (watermark-based), so they retry; the
		// per-peer breaker lives in the USS, keyed by site, not here.
		s.ConnectPeer(httpapi.NewClientWith(peer, peer, httpapi.ClientOptions{Retry: retry}))
		logger.Info("peering", slog.String("peer", peer))
	}

	if *pprofAddr != "" {
		// The pprof handlers live on the DefaultServeMux; the service API
		// runs on its own mux, so profiling stays off the public port.
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			if err := newHTTPServer(*pprofAddr, nil).ListenAndServe(); err != nil {
				logger.Warn("pprof server", "err", err)
			}
		}()
	}

	go periodic(*exchangeEvery, func() {
		ctx := context.Background()
		if *exchDeadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *exchDeadline)
			defer cancel()
		}
		if err := s.Exchange(ctx); err != nil {
			logger.Warn("exchange failed", "err", err)
		}
	})
	go periodic(*refreshEvery, func() {
		if err := s.Refresh(); err != nil {
			logger.Warn("refresh failed", "err", err)
		}
	})

	// A pre-computation three refresh periods old means two ticks were
	// missed: /readyz reports 503 from there.
	maxStale := 3 * *refreshEvery
	srv := httpapi.NewServerWith(s.PDS, s.USS, s.UMS, s.FCS, s.IRS, httpapi.ServerOptions{
		Log:           logger,
		ReadyMaxStale: maxStale,
		Spans:         spans,
		Durability:    durable,
	})
	logger.Info("serving",
		slog.String("listen", *listen),
		slog.Bool("contribute", *contribute),
		slog.Bool("use_global", *useGlobal),
		slog.String("projection", proj.Name()),
		slog.Duration("ready_max_stale", maxStale))

	hs := newHTTPServer(*listen, srv)
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
