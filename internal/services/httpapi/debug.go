package httpapi

import (
	"net/http"
	"strconv"

	"repro/internal/telemetry/span"
	"repro/internal/wire"
)

// debugSpan converts one recorded span to its wire form.
func debugSpan(sp *span.Span) wire.DebugSpan {
	out := wire.DebugSpan{
		TraceID:         sp.TraceID,
		SpanID:          span.FormatID(sp.ID),
		Name:            sp.Name,
		Start:           sp.Start,
		DurationSeconds: sp.Duration.Seconds(),
		Error:           sp.Err,
	}
	if sp.ParentID != 0 {
		out.ParentID = span.FormatID(sp.ParentID)
	}
	for _, a := range sp.Attrs {
		out.Attrs = append(out.Attrs, wire.DebugAttr{Key: a.Key, Value: a.Value})
	}
	return out
}

// queryN parses an optional positive ?n= count, with a default and cap.
func queryN(r *http.Request, def, max int) int {
	n := def
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	if n > max {
		n = max
	}
	return n
}

// handleDebugSummary serves /debug/aequus: tracer, snapshot, drift and peer
// health on one page — the first stop when a site looks unhealthy.
func (s *Server) handleDebugSummary(w http.ResponseWriter, r *http.Request) {
	out := wire.DebugSummary{
		SpansRecorded: s.spans.Recorded(),
		Traces:        len(s.spans.Traces(0)),
	}
	if s.FCS != nil {
		out.FCSComputedAt = s.FCS.ComputedAt()
		if err := s.FCS.LastRefreshError(); err != nil {
			out.FCSLastRefreshError = err.Error()
		}
		ri := s.FCS.LastRefresh()
		out.FCSRefreshMode = ri.Mode
		out.FCSDirtyUsers = ri.DirtyUsers
		out.FCSRefreshSeconds = ri.Duration.Seconds()
		out.FCSFoldSeconds = ri.FoldDuration.Seconds()
		out.FCSPublishSeconds = ri.PublishDuration.Seconds()
		out.FCSUsageScale = ri.UsageScale
		if !ri.UsageReference.IsZero() {
			out.FCSUsageReference = &ri.UsageReference
		}
		d := s.FCS.Drift()
		out.DriftMax, out.DriftMean = d.MaxError, d.MeanError
	}
	if s.USS != nil {
		now := s.clock.Now()
		for _, p := range s.USS.PeerStatuses() {
			out.Peers = append(out.Peers, peerStatus(p, now))
		}
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleDebugTraces serves /debug/aequus/traces?n=: the n most recent traces
// still in the ring buffer, each with its retained spans.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	out := wire.TracesResponse{Traces: []wire.DebugTrace{}}
	for _, t := range s.spans.Traces(queryN(r, 10, 100)) {
		dt := wire.DebugTrace{TraceID: t.TraceID}
		for _, sp := range t.Spans {
			dt.Spans = append(dt.Spans, debugSpan(sp))
		}
		out.Traces = append(out.Traces, dt)
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleDebugSpans serves /debug/aequus/spans?n=: the n slowest retained
// spans — the flat "what is taking long" table.
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	out := wire.SpansResponse{Spans: []wire.DebugSpan{}}
	for _, sp := range s.spans.Slowest(queryN(r, 20, 500)) {
		out.Spans = append(out.Spans, debugSpan(sp))
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleDebugDrift serves /debug/aequus/drift: the fairness-drift table of
// the current snapshot, worst drift first.
func (s *Server) handleDebugDrift(w http.ResponseWriter, r *http.Request) {
	if s.FCS == nil {
		wire.WriteError(w, http.StatusNotFound, "no FCS on this server")
		return
	}
	d := s.FCS.Drift()
	out := wire.DriftResponse{
		ComputedAt: d.ComputedAt,
		MaxError:   d.MaxError,
		MeanError:  d.MeanError,
		Entries:    []wire.DriftEntry{},
	}
	for _, e := range d.Entries {
		out.Entries = append(out.Entries, wire.DriftEntry{
			User: e.User, Target: e.Target, Actual: e.Actual, Error: e.Error,
		})
	}
	wire.WriteJSON(w, http.StatusOK, out)
}
