package telemetry

// ClientMetrics bundles the outgoing-call instruments shared by every Aequus
// HTTP client: request counters by outcome and a retry-attempt counter (the
// companion of the per-peer circuit metrics in internal/resilience), both
// labeled by the target site.
type ClientMetrics struct {
	requests *CounterVec
	retries  *CounterVec
}

// NewClientMetrics registers the outgoing-call instruments on reg.
func NewClientMetrics(reg *Registry) *ClientMetrics {
	reg = OrDefault(reg)
	return &ClientMetrics{
		requests: reg.CounterVec("aequus_client_requests_total",
			"Outgoing HTTP calls, by target site and outcome (ok or error).",
			"target", "outcome"),
		retries: reg.CounterVec("aequus_retry_attempts_total",
			"Outgoing-call retry attempts scheduled after a transient failure, by target site.",
			"target"),
	}
}

// Observe records one completed call attempt.
func (m *ClientMetrics) Observe(target string, err error) {
	if m == nil {
		return
	}
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	m.requests.With(target, outcome).Inc()
}

// Retry records one scheduled retry.
func (m *ClientMetrics) Retry(target string) {
	if m == nil {
		return
	}
	m.retries.With(target).Inc()
}
