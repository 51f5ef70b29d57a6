package supervise

import "acsel/internal/metrics"

// Metric families of the supervision layer: how often workers are
// restarted (and why), and each circuit breaker's live position and
// transition history.
var (
	mRestarts = metrics.NewCounterVec("acsel_supervise_restarts_total",
		"Worker restarts performed by a supervisor, by worker name.", "worker")
	mPanics = metrics.NewCounterVec("acsel_supervise_panics_total",
		"Worker panics recovered by a supervisor, by worker name.", "worker")
	mBreakerState = metrics.NewGaugeVec("acsel_breaker_state", //lint:ignore metricname enum gauge (0=closed 1=open 2=half-open), unitless by construction
		"Circuit breaker state (0=closed, 1=open, 2=half-open), by breaker name.", "breaker")
	mBreakerTransitions = metrics.NewCounterVec("acsel_breaker_transitions_total",
		"Circuit breaker state transitions, by breaker name and destination state.", "breaker", "to")
	mBreakerRejected = metrics.NewCounterVec("acsel_breaker_rejected_total",
		"Calls rejected by an open circuit breaker, by breaker name.", "breaker")
)
