package wire

import "time"

// DebugAttr is one span attribute in the /debug/aequus surface.
type DebugAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// DebugSpan is the wire form of one recorded trace span. IDs are hex strings
// (ParentID "" for a root span).
type DebugSpan struct {
	TraceID         string      `json:"trace_id"`
	SpanID          string      `json:"span_id"`
	ParentID        string      `json:"parent_id,omitempty"`
	Name            string      `json:"name"`
	Start           time.Time   `json:"start"`
	DurationSeconds float64     `json:"duration_seconds"`
	Attrs           []DebugAttr `json:"attrs,omitempty"`
	Error           string      `json:"error,omitempty"`
}

// DebugTrace groups the retained spans of one trace.
type DebugTrace struct {
	TraceID string      `json:"trace_id"`
	Spans   []DebugSpan `json:"spans"`
}

// TracesResponse is the /debug/aequus/traces payload, most recent first.
type TracesResponse struct {
	Traces []DebugTrace `json:"traces"`
}

// SpansResponse is the /debug/aequus/spans payload (slowest spans first).
type SpansResponse struct {
	Spans []DebugSpan `json:"spans"`
}

// DriftEntry is one user's fairness drift in the /debug/aequus/drift payload.
type DriftEntry struct {
	User   string  `json:"user"`
	Target float64 `json:"target"`
	Actual float64 `json:"actual"`
	Error  float64 `json:"error"`
}

// DriftResponse is the fairness-drift table of the current snapshot, sorted
// worst-first.
type DriftResponse struct {
	ComputedAt time.Time    `json:"computed_at"`
	MaxError   float64      `json:"max_error"`
	MeanError  float64      `json:"mean_error"`
	Entries    []DriftEntry `json:"entries"`
}

// DebugSummary is the /debug/aequus landing payload: a one-page health view
// combining tracer, snapshot, drift and peer state.
type DebugSummary struct {
	SpansRecorded       uint64    `json:"spans_recorded"`
	Traces              int       `json:"traces"`
	FCSComputedAt       time.Time `json:"fcs_computed_at"`
	FCSLastRefreshError string    `json:"fcs_last_refresh_error,omitempty"`
	// FCSRefreshMode is how the last refresh ran ("full" or "incremental";
	// "" before the first refresh) — in steady state with delta-capable
	// sources this should read "incremental".
	FCSRefreshMode string `json:"fcs_refresh_mode,omitempty"`
	// FCSDirtyUsers is the changed-user count the last refresh processed
	// (the whole population on a full rebuild).
	FCSDirtyUsers int `json:"fcs_dirty_users"`
	// FCSRefreshSeconds is the duration of the last refresh.
	FCSRefreshSeconds float64 `json:"fcs_refresh_seconds"`
	// FCSFoldSeconds is an incremental refresh's engine cost (zero on a
	// full refresh).
	FCSFoldSeconds float64 `json:"fcs_fold_seconds"`
	// FCSPublishSeconds is the cost of the last refresh's snapshot
	// assembly, which includes projecting every entry only under the
	// dictionary projection: pointwise priorities are projected where they
	// are read, and drift on the first Drift() of a snapshot.
	FCSPublishSeconds float64 `json:"fcs_publish_seconds"`
	// FCSUsageScale is what the usage values in the fairshare tree must be
	// multiplied by to read as decayed core-seconds; FCSUsageReference is
	// the instant they are sums at (absent when they already are decayed
	// totals).
	FCSUsageScale     float64      `json:"fcs_usage_scale"`
	FCSUsageReference *time.Time   `json:"fcs_usage_reference,omitempty"`
	DriftMax          float64      `json:"drift_max"`
	DriftMean         float64      `json:"drift_mean"`
	Peers             []PeerStatus `json:"peers,omitempty"`
}
