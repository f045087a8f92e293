package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/services/pds"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/wire"
)

// DefaultRequestTimeout caps one HTTP attempt when the caller's context
// carries no tighter deadline.
const DefaultRequestTimeout = 10 * time.Second

// NewHTTPClient is the one place Aequus constructs *http.Client values: a
// per-attempt timeout (DefaultRequestTimeout when timeout <= 0) on top of a
// transport with bounded dial/TLS handshake times and enough idle keep-alive
// connections per host that exchange rounds and batch priority calls reuse
// connections instead of re-dialing.
func NewHTTPClient(timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ExpectContinueTimeout: 1 * time.Second,
			MaxIdleConns:          128,
			MaxIdleConnsPerHost:   32,
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// Client talks to a remote Aequus site's HTTP API. Its methods implement
// the source/sink interfaces of the in-process packages, so a local resource
// manager, peer site or libaequus instance cannot tell whether it is wired
// directly or over the network. Every request goes out through call.
type Client struct {
	// BaseURL is the site's service root, e.g. "http://site-a:7470".
	BaseURL string
	// HTTP is the underlying client (default: NewHTTPClient settings).
	HTTP *http.Client
	// SiteName labels the remote site for exchange bookkeeping.
	SiteName string
	// Retry bounds transient-failure retries of idempotent calls (the zero
	// value performs exactly one attempt). Non-idempotent calls — usage
	// reports, which accumulate — are never retried here; the USS's
	// idempotent exchange protocol recovers them instead. Breaking is not a
	// client layer: the USS keeps one breaker per peer (uss.Config.Breaker).
	Retry resilience.RetryPolicy

	metrics *telemetry.ClientMetrics
}

// ClientOptions tunes a Client's resilience and observability wiring.
type ClientOptions struct {
	// HTTP overrides the underlying client (default NewHTTPClient(0)).
	HTTP *http.Client
	// Retry bounds transient-failure retries of idempotent calls.
	Retry resilience.RetryPolicy
	// Metrics receives the outgoing-call instruments (default registry if
	// nil).
	Metrics *telemetry.Registry
}

// NewClient creates a client for the given base URL with default options:
// shared transport limits, no retries.
func NewClient(baseURL, siteName string) *Client {
	return NewClientWith(baseURL, siteName, ClientOptions{})
}

// NewClientWith creates a client with explicit resilience options.
func NewClientWith(baseURL, siteName string, o ClientOptions) *Client {
	if o.HTTP == nil {
		o.HTTP = NewHTTPClient(0)
	}
	return &Client{
		BaseURL:  strings.TrimRight(baseURL, "/"),
		HTTP:     o.HTTP,
		SiteName: siteName,
		Retry:    o.Retry,
		metrics:  telemetry.NewClientMetrics(o.Metrics),
	}
}

// target labels this client's outgoing-call metrics.
func (c *Client) target() string {
	if c.SiteName != "" {
		return c.SiteName
	}
	return c.BaseURL
}

// answer reads the response to one attempt of a call; call drains and
// closes the body after it.
type answer func(resp *http.Response) error

// call is the one way a request leaves a Client. Each attempt builds the
// request with body (nil: none) of contentType, the request ID carried by
// ctx — e.g. from the instrumented handler that triggered this call — or a
// fresh one, and the span on ctx as remote parent; sends it; hands the
// response to ans, then drains and closes the body so the keep-alive
// connection is reused; and counts the attempt in the client metrics. Only
// an idempotent call is retried, per c.Retry with exponential backoff, and
// never after an error classifyStatus or ans marks Permanent.
func (c *Client) call(ctx context.Context, idempotent bool, method, path, contentType string, body []byte, ans answer) error {
	target := c.target()
	attempt := func(ctx context.Context) error {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body) // a fresh reader for every attempt
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, r)
		if err != nil {
			return resilience.Permanent(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		id := telemetry.RequestID(ctx)
		if id == "" {
			id = telemetry.NewRequestID()
		}
		req.Header.Set(telemetry.RequestIDHeader, id)
		// A span on ctx becomes the remote parent: the receiving site's
		// "http.server" span links under it, stitching the cross-site trace.
		if sp := span.Current(ctx); sp != nil {
			req.Header.Set(span.ParentHeader, span.FormatID(sp.ID))
		}
		resp, err := c.HTTP.Do(req)
		if err == nil {
			err = classifyStatus(resp.StatusCode, ans(resp))
			wire.DrainClose(resp.Body)
		} // else a transport error (refused, reset, timeout): retryable
		c.metrics.Observe(target, err)
		return err
	}
	if !idempotent {
		return attempt(ctx)
	}
	p := c.Retry
	orig := p.OnRetry
	p.OnRetry = func(n int, err error) {
		if orig != nil {
			orig(n, err)
		} else {
			c.metrics.Retry(target)
		}
		// The span on ctx (e.g. the USS's per-peer pull span) carries the
		// retry count; SetAttr replaces, so the last attempt number wins.
		span.Current(ctx).SetAttrInt("retries", int64(n))
	}
	return p.Do(ctx, attempt)
}

// classifyStatus marks response errors that repeating the identical request
// cannot fix (4xx — the request itself is wrong — and an answer over wire's
// body cap, which would be as long the next time) as Permanent; 5xx and 429
// stay retryable.
func classifyStatus(code int, err error) error {
	if err == nil {
		return nil
	}
	if code/100 == 4 && code != http.StatusTooManyRequests || errors.Is(err, wire.ErrBodyTooLarge) {
		return resilience.Permanent(err)
	}
	return err
}

// jsonAnswer decodes a 2xx JSON body into out (nil: the body is ignored)
// and turns any other status into the error its envelope names.
func jsonAnswer(out interface{}) answer {
	return func(resp *http.Response) error { return wire.DecodeResponse(resp, out) }
}

// bodyAnswer hands decode a whole 2xx body as read returns it. With want
// set, an answer in another content type (a site that still speaks JSON) is
// refused. Neither that nor a body decode refuses would change on a repeat,
// so both are permanent.
func (c *Client) bodyAnswer(want string, read func(io.Reader) ([]byte, error), decode func([]byte) error) answer {
	return func(resp *http.Response) error {
		if resp.StatusCode/100 != 2 {
			return wire.DecodeResponse(resp, nil)
		}
		ct := resp.Header.Get("Content-Type")
		if mt, _, _ := mime.ParseMediaType(ct); want != "" && mt != want {
			return resilience.Permanent(fmt.Errorf("httpapi: %s answered %s with content type %q, want %q",
				c.target(), resp.Request.URL.Path, ct, want))
		}
		b, err := read(resp.Body)
		if err != nil {
			return err
		}
		return resilience.Permanent(decode(b))
	}
}

// readLarge reads a policy tree or a metrics page, which may outgrow wire's
// 8 MiB cap, up to 16 MiB.
func readLarge(r io.Reader) ([]byte, error) { return io.ReadAll(io.LimitReader(r, 16<<20)) }

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.call(ctx, true, http.MethodGet, path, "", nil, jsonAnswer(out))
}

// post sends in (nil: no body) as JSON and decodes the answer into out.
func (c *Client) post(ctx context.Context, idempotent bool, path string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.call(ctx, idempotent, http.MethodPost, path, "application/json", body, jsonAnswer(out))
}

// --- libaequus sources ---

// Priority implements libaequus.FairshareSource against the remote FCS.
func (c *Client) Priority(gridUser string) (wire.FairshareResponse, error) {
	var out wire.FairshareResponse
	err := c.get(context.Background(), "/fairshare?user="+url.QueryEscape(gridUser), &out)
	return out, err
}

// PriorityBatch implements libaequus.BatchFairshareSource against the
// remote FCS: one POST resolves the whole user list from one snapshot. Both
// bodies are binary (wire.UsersContentType out, wire.FairshareBatchContentType
// back), and the answer is in request order, so the entries are named from
// gridUsers rather than from the wire.
func (c *Client) PriorityBatch(gridUsers []string) (wire.FairshareBatchResponse, error) {
	var out wire.FairshareBatchResponse
	err := c.call(context.Background(), true, http.MethodPost, "/fairshare/batch", wire.UsersContentType,
		wire.AppendUsers(nil, gridUsers), c.bodyAnswer(wire.FairshareBatchContentType, wire.ReadBody, func(body []byte) (err error) {
			if out, err = wire.DecodeFairshareBatch(body, gridUsers); err != nil {
				return fmt.Errorf("httpapi: batch answer from %s: %w", c.target(), err)
			}
			return nil
		}))
	return out, err
}

// Table fetches the full pre-calculated fairshare table.
func (c *Client) Table() (wire.FairshareTableResponse, error) {
	var out wire.FairshareTableResponse
	err := c.get(context.Background(), "/fairshare", &out)
	return out, err
}

// SetProjection switches the remote FCS to the named vector projection.
func (c *Client) SetProjection(name string) error {
	return c.post(context.Background(), true, "/fairshare/projection", map[string]string{"name": name}, nil)
}

// Resolve implements libaequus.IdentitySource against the remote IRS.
func (c *Client) Resolve(site, localUser string) (string, error) {
	var out wire.ResolveResponse
	err := c.post(context.Background(), true, "/identity/resolve",
		wire.ResolveRequest{Site: site, LocalUser: localUser}, &out)
	return out.GridID, err
}

// StoreMapping records an identity mapping in the remote IRS.
func (c *Client) StoreMapping(gridID, site, localUser string) error {
	return c.post(context.Background(), true, "/identity/mapping",
		wire.MappingRequest{GridID: gridID, Site: site, LocalUser: localUser}, nil)
}

// ReportJob implements libaequus.UsageSink against the remote USS. Errors
// are retained in Err (the sink interface is fire-and-forget, matching the
// asynchronous job-completion plug-ins).
func (c *Client) ReportJob(gridUser string, start time.Time, dur time.Duration, procs int) {
	_ = c.ReportJobErr(gridUser, start, dur, procs)
}

// ReportJobErr reports usage and returns any transport error. Usage reports
// accumulate on the remote USS, so the call is not idempotent and is never
// retried: a report lost to a transient failure is recovered by the
// idempotent exchange protocol, not by resending it (which could double
// count).
func (c *Client) ReportJobErr(gridUser string, start time.Time, dur time.Duration, procs int) error {
	return c.post(context.Background(), false, "/usage", wire.UsageReport{
		User:            gridUser,
		Start:           start,
		DurationSeconds: dur.Seconds(),
		Procs:           procs,
	}, nil)
}

// ReportJobBatch reports many completed jobs in one request. Like single
// reports, batches accumulate and are therefore never retried; the
// idempotent exchange protocol recovers anything lost in transit.
func (c *Client) ReportJobBatch(reports []wire.UsageReport) error {
	return c.post(context.Background(), false, "/usage/batch", wire.UsageBatchRequest{Reports: reports}, nil)
}

// --- USS peer ---

// Site implements uss.Peer.
func (c *Client) Site() string { return c.SiteName }

// RecordsSince implements uss.Peer against the remote USS. A request ID
// carried by ctx — typically placed there by the instrumented
// /usage/exchange handler that triggered this pull — is forwarded to the
// peer site, making one exchange traceable across the federation.
//
// The body is the MutRemoteSet the caller will log, decoded by the WAL's own
// decoder. An answer in another content type (a peer that still speaks JSON),
// one that does not decode, or one of another kind is an error that repeating
// the request would not fix. The site the body names labels the records and
// is compared with nothing: aequusd knows its peers by address only.
func (c *Client) RecordsSince(ctx context.Context, t time.Time) ([]usage.Record, error) {
	path := "/usage/records"
	if !t.IsZero() {
		path += "?since=" + url.QueryEscape(t.Format(time.RFC3339))
	}
	var mut *usage.Mutation
	err := c.call(ctx, true, http.MethodGet, path, "", nil, c.bodyAnswer(wire.RecordsContentType, wire.ReadBody, func(body []byte) (err error) {
		if mut, err = usage.DecodePeerMutation(body); err != nil {
			return fmt.Errorf("httpapi: records from %s: %w", c.target(), err)
		}
		if mut.Kind != usage.MutRemoteSet {
			return fmt.Errorf("httpapi: records from %s are a mutation of kind %d, want %d",
				c.target(), mut.Kind, usage.MutRemoteSet)
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return mut.Records(mut.Site), nil
}

// TriggerExchange asks the remote USS to pull from its peers now,
// forwarding ctx's request ID.
func (c *Client) TriggerExchange(ctx context.Context) error {
	return c.post(ctx, true, "/usage/exchange", nil, nil)
}

// MetricsText fetches the site's /metrics snapshot in Prometheus text
// exposition format.
func (c *Client) MetricsText(ctx context.Context) (text string, err error) {
	err = c.call(ctx, true, http.MethodGet, "/metrics", "", nil, c.bodyAnswer("", readLarge, func(b []byte) error {
		text = string(b)
		return nil
	}))
	return text, err
}

// DebugTraces fetches the site's n most recent traces from /debug/aequus.
func (c *Client) DebugTraces(ctx context.Context, n int) (wire.TracesResponse, error) {
	var out wire.TracesResponse
	err := c.get(ctx, fmt.Sprintf("/debug/aequus/traces?n=%d", n), &out)
	return out, err
}

// DebugSlowest fetches the site's n slowest retained spans.
func (c *Client) DebugSlowest(ctx context.Context, n int) (wire.SpansResponse, error) {
	var out wire.SpansResponse
	err := c.get(ctx, fmt.Sprintf("/debug/aequus/spans?n=%d", n), &out)
	return out, err
}

// DebugDrift fetches the site's fairness-drift table.
func (c *Client) DebugDrift(ctx context.Context) (wire.DriftResponse, error) {
	var out wire.DriftResponse
	err := c.get(ctx, "/debug/aequus/drift", &out)
	return out, err
}

// DebugSummary fetches the site's /debug/aequus health summary.
func (c *Client) DebugSummary(ctx context.Context) (wire.DebugSummary, error) {
	var out wire.DebugSummary
	err := c.get(ctx, "/debug/aequus", &out)
	return out, err
}

// Ready fetches the site's /readyz readiness report. A 503 from a stale
// pre-computation is not an error: the decoded report carries the verdict.
func (c *Client) Ready(ctx context.Context) (wire.ReadyResponse, error) {
	var out wire.ReadyResponse
	err := c.call(ctx, true, http.MethodGet, "/readyz", "", nil, func(resp *http.Response) error {
		if resp.StatusCode == http.StatusServiceUnavailable {
			return wire.ReadJSON(resp.Body, &out)
		}
		return wire.DecodeResponse(resp, &out)
	})
	return out, err
}

// --- PDS ---

// Policy fetches the remote site's full policy tree.
func (c *Client) Policy() (t *policy.Tree, err error) {
	err = c.call(context.Background(), true, http.MethodGet, "/policy", "", nil, c.bodyAnswer("", readLarge, func(b []byte) (err error) {
		t, err = policy.FromJSON(b)
		return err
	}))
	return t, err
}

// SetPolicy replaces the remote site's policy. It is sent once, never
// retried.
func (c *Client) SetPolicy(t *policy.Tree) error {
	data, err := policy.ToJSON(t)
	if err != nil {
		return err
	}
	return c.call(context.Background(), false, http.MethodPost, "/policy", "application/json", data, jsonAnswer(nil))
}

// Subtree fetches a policy subtree by path.
func (c *Client) Subtree(path string) (*policy.Node, error) {
	var out policy.Node
	if err := c.get(context.Background(), "/policy/subtree?path="+url.QueryEscape(path), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Mount asks the remote PDS to mount a subtree from origin.
func (c *Client) Mount(parentPath, name string, share float64, origin string) error {
	return c.post(context.Background(), true, "/policy/mount", wire.MountRequest{
		ParentPath: parentPath, Name: name, Share: share, Origin: origin,
	}, nil)
}

// PolicyFetcher builds a pds.Fetcher that interprets origins as
// "<baseURL>|<path>" (or a bare base URL for the root subtree), enabling
// PDS-to-PDS mounting over HTTP. Fetches are counted in the default
// registry, labeled by the origin's base URL.
func PolicyFetcher(httpClient *http.Client) pds.Fetcher {
	if httpClient == nil {
		httpClient = NewHTTPClient(0)
	}
	return func(origin string) (*policy.Node, error) {
		base, path := origin, ""
		if i := strings.LastIndex(origin, "|"); i >= 0 {
			base, path = origin[:i], origin[i+1:]
		}
		return NewClientWith(base, "", ClientOptions{HTTP: httpClient}).Subtree(path)
	}
}
