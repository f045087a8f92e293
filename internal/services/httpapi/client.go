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
// directly or over the network.
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
	// idempotent exchange protocol recovers them instead.
	Retry resilience.RetryPolicy
	// Breaker, when set, guards every call to this site: open means fail
	// fast with resilience.ErrOpen instead of dialing.
	Breaker *resilience.Breaker

	metrics *telemetry.ClientMetrics
}

// ClientOptions tunes a Client's resilience and observability wiring.
type ClientOptions struct {
	// HTTP overrides the underlying client (default NewHTTPClient(0)).
	HTTP *http.Client
	// Retry bounds transient-failure retries of idempotent calls.
	Retry resilience.RetryPolicy
	// Breaker guards all calls to this site (optional).
	Breaker *resilience.Breaker
	// Metrics receives the outgoing-call instruments (default registry if
	// nil).
	Metrics *telemetry.Registry
}

// NewClient creates a client for the given base URL with default options:
// shared transport limits, no retries, no breaker.
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
		Breaker:  o.Breaker,
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

// call runs one logical request through the resilience stack: the breaker
// rejects without dialing when open, every attempt is observed in the
// client metrics, and — for idempotent requests — transient failures are
// retried per c.Retry with exponential backoff. Non-2xx responses that
// repeating cannot fix (4xx) are marked Permanent so they are never
// retried.
func (c *Client) call(ctx context.Context, retryable bool, attempt func(ctx context.Context) error) error {
	target := c.target()
	run := func(ctx context.Context) error {
		if !c.Breaker.Allow() {
			// Fail fast; Permanent keeps the retry loop from hammering a
			// breaker whose cooldown is longer than any backoff.
			return resilience.Permanent(resilience.ErrOpen)
		}
		err := attempt(ctx)
		c.metrics.Observe(target, err)
		if err != nil {
			c.Breaker.Failure(err)
			return err
		}
		c.Breaker.Success()
		return nil
	}
	if !retryable {
		return run(ctx)
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
	return p.Do(ctx, run)
}

// do issues one idempotent request (with retries, when configured). Request
// IDs propagate: an ID carried by ctx (e.g. from an instrumented handler
// that triggered this call) is forwarded in X-Aequus-Request-ID; without one
// a fresh ID is generated, so every outgoing call is traceable. The response
// body is always drained and closed (via wire.DecodeResponse), keeping
// keep-alive connections reusable, and non-2xx statuses become errors.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	return c.call(ctx, true, func(ctx context.Context) error {
		return c.doOnce(ctx, method, path, in, out)
	})
}

// doNoRetry issues one non-idempotent request: breaker and metrics apply,
// retries do not.
func (c *Client) doNoRetry(ctx context.Context, method, path string, in, out interface{}) error {
	return c.call(ctx, false, func(ctx context.Context) error {
		return c.doOnce(ctx, method, path, in, out)
	})
}

// doOnce performs a single HTTP attempt. The request body is re-encoded
// here so every retry attempt gets a fresh reader.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(in); err != nil {
			return resilience.Permanent(err)
		}
		body = &buf
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return resilience.Permanent(err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err // transport errors (refused, reset, timeout) are retryable
	}
	return classifyStatus(resp.StatusCode, wire.DecodeResponse(resp, out))
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

// newRequest builds a request with the propagated (or freshly generated)
// request ID attached.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
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
	return req, nil
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	return c.do(ctx, http.MethodPost, path, in, out)
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
	req := wire.AppendUsers(nil, gridUsers)
	var out wire.FairshareBatchResponse
	err := c.callBinary(context.Background(), http.MethodPost, "/fairshare/batch",
		wire.UsersContentType, req, wire.FairshareBatchContentType, func(body []byte) (err error) {
			if out, err = wire.DecodeFairshareBatch(body, gridUsers); err != nil {
				return fmt.Errorf("httpapi: batch answer from %s: %w", c.target(), err)
			}
			return nil
		})
	return out, err
}

// Table fetches the full pre-calculated fairshare table.
func (c *Client) Table() (wire.FairshareTableResponse, error) {
	var out wire.FairshareTableResponse
	err := c.get(context.Background(), "/fairshare", &out)
	return out, err
}

// Resolve implements libaequus.IdentitySource against the remote IRS.
func (c *Client) Resolve(site, localUser string) (string, error) {
	var out wire.ResolveResponse
	err := c.post(context.Background(), "/identity/resolve",
		wire.ResolveRequest{Site: site, LocalUser: localUser}, &out)
	return out.GridID, err
}

// StoreMapping records an identity mapping in the remote IRS.
func (c *Client) StoreMapping(gridID, site, localUser string) error {
	return c.post(context.Background(), "/identity/mapping",
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
	return c.doNoRetry(context.Background(), http.MethodPost, "/usage", wire.UsageReport{
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
	return c.doNoRetry(context.Background(), http.MethodPost, "/usage/batch",
		wire.UsageBatchRequest{Reports: reports}, nil)
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
	err := c.callBinary(ctx, http.MethodGet, path, "", nil, wire.RecordsContentType, func(body []byte) (err error) {
		if mut, err = usage.DecodePeerMutation(body); err != nil {
			return fmt.Errorf("httpapi: records from %s: %w", c.target(), err)
		}
		if mut.Kind != usage.MutRemoteSet {
			return fmt.Errorf("httpapi: records from %s are a mutation of kind %d, want %d",
				c.target(), mut.Kind, usage.MutRemoteSet)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mut.Records(mut.Site), nil
}

// callBinary is an idempotent call whose answer is a binary body: it sends
// req (when non-nil) as content type reqType and hands decode the answer of
// content type want. Another content type (a site that still speaks JSON)
// and a body decode refuses are errors that repeating the request would not
// fix.
func (c *Client) callBinary(ctx context.Context, method, path, reqType string, req []byte, want string, decode func([]byte) error) error {
	return c.call(ctx, true, func(ctx context.Context) error {
		var body io.Reader
		if req != nil {
			body = bytes.NewReader(req)
		}
		hreq, err := c.newRequest(ctx, method, path, body)
		if err != nil {
			return resilience.Permanent(err)
		}
		if req != nil {
			hreq.Header.Set("Content-Type", reqType)
		}
		resp, err := c.HTTP.Do(hreq)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return classifyStatus(resp.StatusCode, wire.DecodeResponse(resp, nil))
		}
		defer wire.DrainClose(resp.Body)
		ct := resp.Header.Get("Content-Type")
		if mt, _, _ := mime.ParseMediaType(ct); mt != want {
			return resilience.Permanent(fmt.Errorf("httpapi: %s answered %s with content type %q, want %q",
				c.target(), path, ct, want))
		}
		b, err := wire.ReadBody(resp.Body)
		if err != nil {
			return classifyStatus(resp.StatusCode, err)
		}
		if err := decode(b); err != nil {
			return resilience.Permanent(err)
		}
		return nil
	})
}

// TriggerExchange asks the remote USS to pull from its peers now,
// forwarding ctx's request ID.
func (c *Client) TriggerExchange(ctx context.Context) error {
	return c.post(ctx, "/usage/exchange", nil, nil)
}

// MetricsText fetches the site's /metrics snapshot in Prometheus text
// exposition format.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer wire.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("httpapi: metrics fetch: %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 16<<20)); err != nil {
		return "", err
	}
	return buf.String(), nil
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
	req, err := c.newRequest(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return wire.ReadyResponse{}, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return wire.ReadyResponse{}, err
	}
	defer wire.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return wire.ReadyResponse{}, fmt.Errorf("httpapi: readyz: %s", resp.Status)
	}
	var out wire.ReadyResponse
	if err := wire.ReadJSON(resp.Body, &out); err != nil {
		return wire.ReadyResponse{}, err
	}
	return out, nil
}

// --- PDS ---

// Policy fetches the remote site's full policy tree.
func (c *Client) Policy() (*policy.Tree, error) {
	req, err := c.newRequest(context.Background(), http.MethodGet, "/policy", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer wire.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpapi: policy fetch: %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 16<<20)); err != nil {
		return nil, err
	}
	return policy.FromJSON(buf.Bytes())
}

// SetPolicy replaces the remote site's policy.
func (c *Client) SetPolicy(t *policy.Tree) error {
	data, err := policy.ToJSON(t)
	if err != nil {
		return err
	}
	req, err := c.newRequest(context.Background(), http.MethodPost, "/policy", bytes.NewReader(data))
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	return wire.DecodeResponse(resp, nil)
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
	return c.post(context.Background(), "/policy/mount", wire.MountRequest{
		ParentPath: parentPath, Name: name, Share: share, Origin: origin,
	}, nil)
}

// PolicyFetcher builds a pds.Fetcher that interprets origins as
// "<baseURL>|<path>" (or a bare base URL for the root subtree), enabling
// PDS-to-PDS mounting over HTTP.
func PolicyFetcher(httpClient *http.Client) pds.Fetcher {
	if httpClient == nil {
		httpClient = NewHTTPClient(0)
	}
	return func(origin string) (*policy.Node, error) {
		base, path := origin, ""
		if i := strings.LastIndex(origin, "|"); i >= 0 {
			base, path = origin[:i], origin[i+1:]
		}
		c := &Client{BaseURL: strings.TrimRight(base, "/"), HTTP: httpClient}
		return c.Subtree(path)
	}
}

// EndpointClient adapts a custom HTTP name-resolution endpoint (the
// "minimalist JSON based protocol") to the irs.Endpoint interface.
type EndpointClient struct {
	URL  string
	HTTP *http.Client
}

// Resolve implements irs.Endpoint: POST {site, localUser} -> {gridId}.
func (e *EndpointClient) Resolve(site, localUser string) (string, error) {
	h := e.HTTP
	if h == nil {
		h = NewHTTPClient(0)
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(wire.ResolveRequest{Site: site, LocalUser: localUser}); err != nil {
		return "", err
	}
	resp, err := h.Post(e.URL, "application/json", &body)
	if err != nil {
		return "", err
	}
	var out wire.ResolveResponse
	if err := wire.DecodeResponse(resp, &out); err != nil {
		return "", err
	}
	return out.GridID, nil
}
