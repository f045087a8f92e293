// Package httpapi exposes the Aequus services over HTTP/JSON and provides
// the matching clients. One Server bundles a site's full Aequus stack (PDS,
// USS, UMS, FCS, IRS) behind a single mux — the deployment unit the paper
// installs alongside each cluster — while the clients let remote sites,
// libaequus instances and custom identity endpoints interoperate.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durability"
	"repro/internal/identity"
	"repro/internal/policy"
	"repro/internal/services/fcs"
	"repro/internal/services/irs"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/vector"
	"repro/internal/wire"
)

// DefaultReadyMaxStale is the /readyz staleness threshold used when
// ServerOptions leaves ReadyMaxStale zero.
const DefaultReadyMaxStale = 5 * time.Minute

// ServerOptions tunes a Server's observability wiring.
type ServerOptions struct {
	// Registry receives the HTTP instruments and is served at /metrics
	// (default: the process-wide registry, telemetry.OrDefault).
	Registry *telemetry.Registry
	// Log receives per-request debug records and service lifecycle events
	// (default: slog.Default()).
	Log *slog.Logger
	// ReadyMaxStale is how old the FCS/UMS pre-computation may be before
	// /readyz reports 503 (default DefaultReadyMaxStale; negative disables
	// the staleness check).
	ReadyMaxStale time.Duration
	// Clock measures pre-computation age for /readyz; it must be the same
	// clock the services run on (default wall clock).
	Clock simclock.Clock
	// Spans enables span tracing: every instrumented route records an
	// "http.server" span (linked to a remote parent via span.ParentHeader),
	// and the recorder is served at /debug/aequus. Nil disables both.
	Spans *span.Recorder
	// Durability, when set, adds a "durability" component to /readyz: not
	// ready while the WAL tail is replaying ("recovering", with progress)
	// and until the owner marks the first post-replay fairshare publish
	// done — a restarted site keeps answering data requests from the
	// recovered snapshot but is not advertised to load balancers until its
	// published priorities reflect the replayed state.
	Durability *durability.Log
}

// Server serves a site's Aequus services over HTTP. Every route but
// /metrics and /healthz is a route value: counted by status code, with an
// in-flight gauge and a latency histogram labeled by route, exposed at
// /metrics, and request IDs propagated per span.RequestIDHeader.
type Server struct {
	PDS *pds.Service
	USS *uss.Service
	UMS *ums.Service
	FCS *fcs.Service
	IRS *irs.Service

	registry      *telemetry.Registry
	log           *slog.Logger
	readyMaxStale time.Duration
	clock         simclock.Clock
	spans         *span.Recorder
	durable       *durability.Log
	mux           *http.ServeMux
}

// NewServer wires the handlers with default observability options. Any nil
// service leaves its endpoints unregistered.
func NewServer(p *pds.Service, u *uss.Service, m *ums.Service, f *fcs.Service, i *irs.Service) *Server {
	return NewServerWith(p, u, m, f, i, ServerOptions{})
}

// NewServerWith wires the handlers with explicit observability options.
func NewServerWith(p *pds.Service, u *uss.Service, m *ums.Service, f *fcs.Service, i *irs.Service, o ServerOptions) *Server {
	if o.Log == nil {
		o.Log = slog.Default()
	}
	if o.ReadyMaxStale == 0 {
		o.ReadyMaxStale = DefaultReadyMaxStale
	}
	if o.Clock == nil {
		o.Clock = simclock.Real{}
	}
	s := &Server{
		PDS: p, USS: u, UMS: m, FCS: f, IRS: i,
		registry:      telemetry.OrDefault(o.Registry),
		log:           o.Log,
		readyMaxStale: o.ReadyMaxStale,
		clock:         o.Clock,
		spans:         o.Spans,
		durable:       o.Durability,
		mux:           http.NewServeMux(),
	}
	requests := s.registry.CounterVec("aequus_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	inflight := s.registry.GaugeVec("aequus_http_in_flight_requests",
		"HTTP requests currently being served, by route.", "route")
	latency := s.registry.HistogramVec("aequus_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.", telemetry.DefBuckets(), "route")
	// handle registers the route at path that answers GET with get and POST
	// with post; any other method, or one whose handler is nil, gets the
	// route's JSON 405.
	handle := func(path string, get, post http.HandlerFunc) {
		s.mux.Handle(path, &route{
			path: path, get: get, post: post, spans: s.spans, log: s.log,
			inflight: inflight.With(path), latency: latency.With(path),
			requests: requests, codes: map[int]*telemetry.Counter{},
		})
	}
	if p != nil {
		handle("/policy", s.handlePolicy, s.handleSetPolicy)
		handle("/policy/subtree", s.handlePolicySubtree, nil)
		handle("/policy/mount", nil, s.handlePolicyMount)
		handle("/policy/refresh", nil, s.handlePolicyRefresh)
	}
	if u != nil {
		handle("/usage/batch", nil, s.handleUsageBatch)
		handle("/usage/records", s.handleUsageRecords, nil)
		handle("/usage/exchange", nil, s.handleUsageExchange)
	}
	if m != nil {
		handle("/usage/tree", s.handleUsageTree, nil)
	}
	if f != nil {
		handle("/fairshare", s.handleFairshare, nil)
		handle("/fairshare/batch", nil, s.handleFairshareBatch)
		handle("/fairshare/refresh", nil, s.handleFairshareRefresh)
		handle("/fairshare/projection", nil, s.handleProjection)
	}
	if i != nil {
		handle("/identity/mapping", nil, s.handleMapping)
		handle("/identity/resolve", s.handleResolve, s.handleResolveJSON)
	}
	s.mux.Handle("/metrics", s.registry.Handler())
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("/readyz", s.handleReadyz, nil)
	if s.spans != nil {
		handle("/debug/aequus", s.handleDebugSummary, nil)
		handle("/debug/aequus/traces", s.handleDebugTraces, nil)
		handle("/debug/aequus/spans", s.handleDebugSpans, nil)
		handle("/debug/aequus/drift", s.handleDebugDrift, nil)
	}
	return s
}

// idKey is span.RequestIDHeader in the canonical form net/http keys
// headers by, so that reading and writing it canonicalizes nothing per
// request. The wire carries the same header either way.
var idKey = textproto.CanonicalMIMEHeaderKey(span.RequestIDHeader)

// route serves one instrumented route. It is built when the route is
// registered, with its in-flight gauge and latency histogram resolved, and
// its ServeHTTP is all the instrumentation a request gets: the method
// check, whose JSON 405 is counted and traced like any other answer of the
// route; the request ID, an incoming span.RequestIDHeader or a fresh one,
// echoed in the response; the request's tracing state on the context as
// one value (span.WithRequest), under an "http.server" span linked to the
// caller's span.ParentHeader; requests{route,code}; and, when debug logging
// is enabled, one access-log record.
type route struct {
	path      string
	get, post http.HandlerFunc // nil: the method gets a 405
	spans     *span.Recorder
	log       *slog.Logger
	inflight  *telemetry.Gauge
	latency   *telemetry.Histogram
	requests  *telemetry.CounterVec

	mu    sync.RWMutex
	codes map[int]*telemetry.Counter // requests{path,code}, by code once answered
}

func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(idKey)
	if id == "" {
		id = span.NewRequestID()
	}
	w.Header().Set(idKey, id)
	ctx := span.WithRequest(r.Context(), id, rt.spans, span.ParseID(r.Header.Get(span.ParentHeader)))
	ctx, sp := span.Start(ctx, "http.server")
	sp.SetAttr("route", rt.path)
	sp.SetAttr("method", r.Method)
	defer sp.End()
	r = r.WithContext(ctx)

	rt.inflight.Inc()
	defer rt.inflight.Dec()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	var h http.HandlerFunc
	switch r.Method {
	case http.MethodGet:
		h = rt.get
	case http.MethodPost:
		h = rt.post
	}
	if h == nil {
		wire.WriteError(sw, http.StatusMethodNotAllowed, "method %s", r.Method)
	} else {
		h(sw, r)
	}
	dur := time.Since(start)

	rt.latency.Observe(dur.Seconds())
	rt.counter(sw.code).Inc()
	if rt.log.Enabled(ctx, slog.LevelDebug) {
		rt.log.LogAttrs(ctx, slog.LevelDebug, "http request",
			slog.String("route", rt.path),
			slog.String("method", r.Method),
			slog.Int("code", sw.code),
			slog.Duration("duration", dur),
			slog.String("request_id", id))
	}
}

// counter returns the route's requests{route,code} series for code. The
// registry's get-or-create makes a race between two first answers of a
// code harmless: both resolve the same counter.
func (rt *route) counter(code int) *telemetry.Counter {
	rt.mu.RLock()
	c := rt.codes[code]
	rt.mu.RUnlock()
	if c == nil {
		c = rt.requests.With(rt.path, strconv.Itoa(code))
		rt.mu.Lock()
		rt.codes[code] = c
		rt.mu.Unlock()
	}
	return c
}

// statusWriter captures the response status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// readBody decodes a JSON request body into v and reports whether it could;
// when not, it has answered (bodyOK).
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return bodyOK(w, wire.ReadJSON(r.Body, v))
}

// bodyOK reports whether reading or decoding a request body succeeded; when
// not, it has answered: 413 for a body over wire's cap, 400 otherwise.
func bodyOK(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, wire.ErrBodyTooLarge):
		wire.WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	return false
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	data, err := policy.ToJSON(s.PDS.Policy())
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if !readBody(w, r, &body) {
		return
	}
	t, err := policy.FromJSON(body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.PDS.SetPolicy(t); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handlePolicySubtree(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	sub, err := s.PDS.Subtree(path)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	data, err := policy.SubtreeToJSON(sub)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, json.RawMessage(data))
}

func (s *Server) handlePolicyMount(w http.ResponseWriter, r *http.Request) {
	var req wire.MountRequest
	if !readBody(w, r, &req) {
		return
	}
	if err := s.PDS.Mount(req.ParentPath, req.Name, req.Share, req.Origin); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handlePolicyRefresh(w http.ResponseWriter, r *http.Request) {
	if err := s.PDS.RefreshMounts(); err != nil {
		wire.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleUsageBatch ingests job completions, one or many per request (the
// only ingest route). The whole batch is validated before any report lands,
// so a malformed entry rejects the request instead of half-applying it. A
// report needs a user and a duration that is neither negative nor past what
// a time.Duration holds (≈292 years): converting a larger one is
// implementation-defined. Seconds convert to the nearest nanosecond: a
// duration sent as Duration.Seconds() comes back as itself, where
// truncating would book it 1 ns short about one time in forty.
func (s *Server) handleUsageBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.UsageBatchRequest
	if !readBody(w, r, &req) {
		return
	}
	jobs := make([]uss.JobReport, len(req.Reports))
	for i, rep := range req.Reports {
		ns := rep.DurationSeconds * float64(time.Second)
		if rep.User == "" || !(ns >= 0 && ns < 1<<63) {
			wire.WriteError(w, http.StatusBadRequest, "invalid usage report at index %d", i)
			return
		}
		jobs[i] = uss.JobReport{
			User:     rep.User,
			Start:    rep.Start,
			Duration: time.Duration(math.Round(ns)),
			Procs:    rep.Procs,
		}
	}
	s.USS.ReportJobBatch(jobs)
	wire.WriteJSON(w, http.StatusOK, map[string]int{"reports": len(jobs)})
}

// handleUsageRecords serves the site's records from ?since= on as the
// MutRemoteSet the pulling site will log: one encoding from this histogram to
// that disk (wire.RecordsContentType).
func (s *Server) handleUsageRecords(w http.ResponseWriter, r *http.Request) {
	var since time.Time
	if q := r.URL.Query().Get("since"); q != "" {
		t, err := time.Parse(time.RFC3339, q)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
		since = t
	}
	recs, err := s.USS.RecordsSince(r.Context(), since)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	mut := usage.Mutation{Kind: usage.MutRemoteSet, Site: s.USS.Site(), Ops: usage.BinOps(recs)}
	writeBinary(w, recordsType, mut.AppendBinary(nil))
}

// The Content-Type values of the binary answers, built once: writeBinary
// assigns one to the header map, where Header().Set would allocate a value
// slice per response. Nothing writes into them.
var (
	recordsType = []string{wire.RecordsContentType}
	batchType   = []string{wire.FairshareBatchContentType}
)

// writeBinary answers 200 with a binary body whose Content-Type value is ct.
func writeBinary(w http.ResponseWriter, ct []string, body []byte) {
	w.Header()["Content-Type"] = ct
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func (s *Server) handleUsageExchange(w http.ResponseWriter, r *http.Request) {
	// The request context carries the request ID, so the triggered peer
	// pulls propagate it across the site hop.
	n, err := s.USS.Exchange(r.Context())
	if err != nil {
		wire.WriteError(w, http.StatusBadGateway, "exchange: %v (after %d records)", err, n)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]int{"records": n})
}

func (s *Server) handleUsageTree(w http.ResponseWriter, r *http.Request) {
	totals, at, err := s.UMS.UsageTotals()
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.UsageTreeResponse{Totals: totals, ComputedAt: at})
}

func (s *Server) handleFairshare(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		tab, err := s.FCS.Table()
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, tab)
		return
	}
	resp, err := s.FCS.Priority(user)
	if err != nil {
		if errors.Is(err, fcs.ErrUnknownUser) {
			wire.WriteError(w, http.StatusNotFound, "%v", err)
			return
		}
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleFairshareBatch resolves a whole queue of users against one
// fairshare snapshot — one request, one snapshot load, N map lookups. Both
// bodies are binary and the answer is in request order (wire/batch.go); a
// request in any other content type, JSON included, is refused with 415.
func (s *Server) handleFairshareBatch(w http.ResponseWriter, r *http.Request) {
	if !wire.IsMediaType(r.Header.Get("Content-Type"), wire.UsersContentType) {
		wire.WriteError(w, http.StatusUnsupportedMediaType, "content type %q, want %q",
			r.Header.Get("Content-Type"), wire.UsersContentType)
		return
	}
	body, err := wire.ReadBody(r.Body)
	if !bodyOK(w, err) {
		return
	}
	users, err := wire.DecodeUsers(body)
	if !bodyOK(w, err) {
		return
	}
	resp, err := s.FCS.PriorityBatch(users)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ans, err := wire.AppendFairshareBatch(nil, users, resp)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeBinary(w, batchType, ans)
}

// handleFairshareRefresh recomputes the published priorities now. It drops
// the UMS's cached totals first, as core.Site.Refresh does, or the FCS would
// re-publish the totals of the UMS's last pass until its TTL ran out.
func (s *Server) handleFairshareRefresh(w http.ResponseWriter, r *http.Request) {
	if s.UMS != nil {
		s.UMS.Invalidate()
	}
	if err := s.FCS.Refresh(); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleProjection(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if !readBody(w, r, &req) {
		return
	}
	p, ok := vector.ByName(req.Name)
	if !ok {
		wire.WriteError(w, http.StatusBadRequest, "unknown projection %q", req.Name)
		return
	}
	s.FCS.SetProjection(p)
	wire.WriteJSON(w, http.StatusOK, map[string]string{"projection": p.Name()})
}

// handleReadyz reports per-service readiness. The stateless services are
// ready by existing; FCS and UMS are ready once their pre-computation is
// fresh enough (ComputedAt within ReadyMaxStale). Any stale or never-run
// pre-computation turns the whole endpoint 503, which is what a load
// balancer or orchestrator should act on.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	now := s.clock.Now()
	resp := wire.ReadyResponse{Ready: true, Components: map[string]wire.ReadyComponent{}}
	if s.PDS != nil {
		resp.Components["pds"] = wire.ReadyComponent{Ready: true}
	}
	if s.USS != nil {
		resp.Components["uss"] = s.ussStatus(now)
	}
	if s.IRS != nil {
		resp.Components["irs"] = wire.ReadyComponent{Ready: true}
	}
	if s.UMS != nil {
		resp.Components["ums"] = s.precomputeStatus(now, s.UMS.ComputedAt())
	}
	if s.FCS != nil {
		c := s.precomputeStatus(now, s.FCS.ComputedAt())
		// A failing background refresh (stale-while-revalidate) is invisible
		// to readers — they keep getting the old snapshot — so surface it
		// here for operators even while the snapshot is still fresh enough.
		if err := s.FCS.LastRefreshError(); err != nil {
			if c.Reason != "" {
				c.Reason += "; "
			}
			c.Reason += "last refresh failed: " + err.Error()
		}
		resp.Components["fcs"] = c
	}
	if s.durable != nil {
		resp.Components["durability"] = s.durabilityStatus()
	}
	for _, c := range resp.Components {
		if !c.Ready {
			resp.Ready = false
		}
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, code, resp)
}

// durabilityStatus reports crash-recovery progress. The component is not
// ready while the WAL tail replays, and stays not ready after replay until
// the owner calls MarkReady following the first post-replay fairshare
// publish — between those points the site serves recovered data but its
// published priorities may still predate the crash. A log poisoned by a
// failed write is not ready for good: the process must restart.
func (s *Server) durabilityStatus() wire.ReadyComponent {
	d := s.durable
	if err := d.Failed(); err != nil {
		return wire.ReadyComponent{Reason: "failed: " + err.Error()}
	}
	if d.Recovering() {
		done, total := d.ReplayProgress()
		return wire.ReadyComponent{
			Reason: fmt.Sprintf("recovering: replaying WAL (%d/%d records)", done, total),
		}
	}
	if !d.Ready() {
		return wire.ReadyComponent{
			Reason: "recovered: awaiting first fairshare publish",
		}
	}
	return wire.ReadyComponent{Ready: true}
}

// ussStatus reports the USS component with per-peer exchange health. A
// degraded peer — open breaker, consecutive failures, or a pull older than
// ReadyMaxStale — is named in Reason but does not flip Ready: local priority
// serving works without that peer, and the global picture merely lags
// (Section IV's partial-exchange degradation, not an outage).
func (s *Server) ussStatus(now time.Time) wire.ReadyComponent {
	c := wire.ReadyComponent{Ready: true}
	var degraded []string
	for _, p := range s.USS.PeerStatuses() {
		c.Peers = append(c.Peers, peerStatus(p, now))
		switch {
		case p.Breaker == "open":
			degraded = append(degraded, p.Site+" (circuit open)")
		case p.ConsecutiveFailures > 0:
			degraded = append(degraded, p.Site+" (failing)")
		case s.readyMaxStale > 0 && !p.LastSuccess.IsZero() && now.Sub(p.LastSuccess) > s.readyMaxStale:
			degraded = append(degraded, p.Site+" (stale)")
		}
	}
	if len(degraded) > 0 {
		c.Reason = "degraded peers: " + strings.Join(degraded, ", ")
	}
	return c
}

// peerStatus is p's exchange health on the wire, as /readyz and
// /debug/aequus show it: its staleness at now, or -1 when never pulled.
func peerStatus(p uss.PeerStatus, now time.Time) wire.PeerStatus {
	ps := wire.PeerStatus{
		Site:                p.Site,
		Breaker:             p.Breaker,
		LastSuccess:         p.LastSuccess,
		StalenessSeconds:    -1,
		ConsecutiveFailures: p.ConsecutiveFailures,
		LastError:           p.LastError,
	}
	if !p.LastSuccess.IsZero() {
		ps.StalenessSeconds = now.Sub(p.LastSuccess).Seconds()
	}
	return ps
}

func (s *Server) precomputeStatus(now, computedAt time.Time) wire.ReadyComponent {
	c := wire.ReadyComponent{ComputedAt: computedAt}
	switch {
	case computedAt.IsZero():
		c.Reason = "no pre-computation yet"
	default:
		c.AgeSeconds = now.Sub(computedAt).Seconds()
		if s.readyMaxStale > 0 && now.Sub(computedAt) > s.readyMaxStale {
			c.Reason = "pre-computation stale"
		} else {
			c.Ready = true
		}
	}
	return c
}

func (s *Server) handleMapping(w http.ResponseWriter, r *http.Request) {
	var req wire.MappingRequest
	if !readBody(w, r, &req) {
		return
	}
	m := identity.Mapping{GridID: req.GridID, Site: req.Site, LocalUser: req.LocalUser}
	if err := s.IRS.Store(m); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	s.resolve(w, r.URL.Query().Get("site"), r.URL.Query().Get("local"))
}

// handleResolveJSON is the minimalist JSON protocol shared with custom
// endpoints.
func (s *Server) handleResolveJSON(w http.ResponseWriter, r *http.Request) {
	var req wire.ResolveRequest
	if !readBody(w, r, &req) {
		return
	}
	s.resolve(w, req.Site, req.LocalUser)
}

func (s *Server) resolve(w http.ResponseWriter, site, local string) {
	g, err := s.IRS.Resolve(site, local)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.ResolveResponse{GridID: g})
}
