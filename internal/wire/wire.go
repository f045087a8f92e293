// Package wire defines the JSON message types exchanged between the Aequus
// services, the libaequus client library, and custom identity-resolution
// endpoints — the "minimalist JSON based protocol" of Section III-B —
// together with small HTTP helpers shared by servers and clients. The bodies
// that are not JSON are the peer pull's (RecordsContentType) and both of the
// batch lookup's (batch.go): the two routes whose bodies grow with the
// federation.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FairshareResponse carries one user's pre-calculated fairshare data.
type FairshareResponse struct {
	// User is the grid identity.
	User string `json:"user"`
	// Value is the projected priority in [0,1].
	Value float64 `json:"value"`
	// Vector is the raw fairshare vector (resolution-scaled).
	Vector []float64 `json:"vector,omitempty"`
	// Priority is the raw leaf priority (unprojected).
	Priority float64 `json:"priority"`
	// ComputedAt is when the FCS pre-calculated this value.
	ComputedAt time.Time `json:"computedAt"`
}

// FairshareTableResponse carries the full pre-calculated table.
type FairshareTableResponse struct {
	Entries    []FairshareResponse `json:"entries"`
	Projection string              `json:"projection"`
	ComputedAt time.Time           `json:"computedAt"`
}

// FairshareBatchResponse answers a batch lookup — many users' pre-calculated
// values in one round trip, how a resource manager reprioritizes a whole
// queue without N sequential lookups — from a single fairshare snapshot:
// every entry carries the same ComputedAt, and users absent from the policy
// are listed in Missing instead of failing the whole batch. Entries and
// Missing each follow the order of the request. It travels as the binary
// answer of batch.go, never as JSON.
type FairshareBatchResponse struct {
	Entries    []FairshareResponse
	Missing    []string
	Projection string
	ComputedAt time.Time
}

// UsageReport carries job-completion usage from a resource manager (via
// libaequus) to the USS.
type UsageReport struct {
	// User is the grid identity that owns the job.
	User string `json:"user"`
	// Start is the job's execution start time.
	Start time.Time `json:"start"`
	// DurationSeconds is the wall-clock duration.
	DurationSeconds float64 `json:"durationSeconds"`
	// Procs is the processor count.
	Procs int `json:"procs"`
}

// UsageBatchRequest carries many job completions in one request — the
// high-throughput ingest path: one HTTP exchange, one JSON decode, one
// striped-batch histogram ingest.
type UsageBatchRequest struct {
	Reports []UsageReport `json:"reports"`
}

// RecordsContentType names the body of GET /usage/records: one
// usage.Mutation of kind MutRemoteSet in its binary encoding, the bytes the
// pulling site write-ahead-logs. A peer pull takes nothing else.
const RecordsContentType = "application/vnd.aequus.records"

// UsageTreeResponse carries the UMS's pre-computed per-user decayed usage.
type UsageTreeResponse struct {
	// Totals maps grid user to decayed core-seconds.
	Totals map[string]float64 `json:"totals"`
	// ComputedAt is the pre-computation time.
	ComputedAt time.Time `json:"computedAt"`
}

// ResolveRequest asks the IRS (or a custom endpoint) to revert a site
// mapping.
type ResolveRequest struct {
	Site      string `json:"site"`
	LocalUser string `json:"localUser"`
}

// ResolveResponse returns the grid identity for a local account.
type ResolveResponse struct {
	GridID string `json:"gridId"`
}

// MappingRequest stores a mapping in the IRS lookup table.
type MappingRequest struct {
	GridID    string `json:"gridId"`
	Site      string `json:"site"`
	LocalUser string `json:"localUser"`
}

// MountRequest asks a PDS to mount a remote sub-policy.
type MountRequest struct {
	// ParentPath is where to mount, e.g. "" for the root.
	ParentPath string `json:"parentPath"`
	// Name is the mount-point name.
	Name string `json:"name"`
	// Share is the local share assigned to the mounted subtree.
	Share float64 `json:"share"`
	// Origin is the URL of the remote PDS serving the subtree.
	Origin string `json:"origin"`
}

// PeerStatus reports one exchange peer's health inside the USS readiness
// component.
type PeerStatus struct {
	// Site is the peer site name.
	Site string `json:"site"`
	// Breaker is the circuit state: "closed", "open", "half-open", or
	// "disabled" when no breaker guards the peer.
	Breaker string `json:"breaker"`
	// LastSuccess is the last successful pull; zero when never succeeded.
	LastSuccess time.Time `json:"lastSuccess,omitempty"`
	// StalenessSeconds is the age of the last successful pull, or -1 when
	// the peer has never been pulled successfully.
	StalenessSeconds float64 `json:"stalenessSeconds"`
	// ConsecutiveFailures counts pulls failed since the last success.
	ConsecutiveFailures int `json:"consecutiveFailures,omitempty"`
	// LastError is the most recent pull error, cleared on success.
	LastError string `json:"lastError,omitempty"`
}

// ReadyComponent reports one service's readiness inside a ReadyResponse.
type ReadyComponent struct {
	Ready bool `json:"ready"`
	// ComputedAt is the last pre-computation time for services that cache
	// (FCS, UMS); zero for stateless services.
	ComputedAt time.Time `json:"computedAt"`
	// AgeSeconds is how old that pre-computation is.
	AgeSeconds float64 `json:"ageSeconds,omitempty"`
	// Reason explains a not-ready verdict.
	Reason string `json:"reason,omitempty"`
	// Peers details exchange-peer health (USS component only). Degraded
	// peers do not flip Ready: local serving works without them.
	Peers []PeerStatus `json:"peers,omitempty"`
}

// ReadyResponse is the /readyz envelope: overall readiness plus a
// per-service breakdown.
type ReadyResponse struct {
	Ready      bool                      `json:"ready"`
	Components map[string]ReadyComponent `json:"components"`
}

// ErrorResponse is the error envelope all services use.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an ErrorResponse.
func WriteError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBody is the largest body ReadJSON decodes and ReadBody returns.
const maxBody = 8 << 20

// ErrBodyTooLarge is what ReadJSON, ReadBody and DecodeResponse return for a
// body of more than maxBody bytes; servers answer it with 413.
var ErrBodyTooLarge = errors.New("wire: body exceeds 8 MiB")

// ReadBody returns a whole body of at most maxBody bytes, and ErrBodyTooLarge
// for a longer one. It reads into one buffer, never more than one byte past
// the cap.
func ReadBody(r io.Reader) ([]byte, error) {
	b := make([]byte, 0, 512)
	for {
		n, err := r.Read(b[len(b):min(cap(b), maxBody+1)])
		b = b[:len(b)+n]
		if len(b) > maxBody {
			return nil, ErrBodyTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// ReadJSON decodes a request or response body into v. It reads at most one
// byte past the cap, so an over-long body is reported as ErrBodyTooLarge and
// not as the truncated document the decoder would otherwise see.
func ReadJSON(r io.Reader, v interface{}) error {
	lr := &io.LimitedReader{R: r, N: maxBody + 1}
	err := json.NewDecoder(lr).Decode(v)
	if lr.N == 0 {
		return ErrBodyTooLarge
	}
	return err
}

// DecodeResponse decodes an HTTP response, translating error envelopes into
// Go errors. The body is always drained and closed — even when the caller
// wants no payload or the status is unexpected — so the underlying
// keep-alive connection returns to the pool instead of being torn down.
func DecodeResponse(resp *http.Response, v interface{}) error {
	defer DrainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if err := ReadJSON(resp.Body, &e); err == nil && e.Error != "" {
			return fmt.Errorf("wire: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("wire: unexpected status %s", resp.Status)
	}
	if v == nil {
		return nil
	}
	return ReadJSON(resp.Body, v)
}

// drainBufs holds the scratch buffers DrainClose reads into.
var drainBufs = sync.Pool{New: func() any { return new([8 << 10]byte) }}

// DrainClose consumes any unread remainder of body (at most 4 MiB, so a huge
// or malicious response cannot stall the client) and closes it. Fully
// reading the body is what lets net/http reuse the connection.
func DrainClose(body io.ReadCloser) {
	buf := drainBufs.Get().(*[8 << 10]byte)
	for left := 4 << 20; left > 0; {
		n, err := body.Read(buf[:min(len(buf), left)])
		left -= n
		if err != nil {
			break
		}
	}
	drainBufs.Put(buf)
	_ = body.Close()
}

// IsMediaType reports whether the Content-Type value ct names the media
// type want, read as mime.ParseMediaType reads it: the part before any ';',
// trimmed and case-insensitive. The parameters are not parsed.
func IsMediaType(ct, want string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), want)
}
