package query

import (
	"sync/atomic"

	"acsel/internal/metrics"
)

// Metric families of the selection query service. Every request is
// counted once, by its outcome (served, shed, deadline, error); the
// hit, shed and computed-selection families are derived from those
// counts at export, so no request pays for a second count. Computation
// time is a sampled histogram.
var (
	mRequests = metrics.NewCounterVec("acsel_query_requests_total",
		"Selection queries received, by outcome (served, cached, shed, deadline, error; cached stays 0, since no selection is cached).",
		"outcome")
	mReloads = metrics.NewCounter("acsel_query_model_reloads_total",
		"Hot model reloads applied via atomic generation swap.")
	mSelectSeconds = metrics.NewHistogram("acsel_query_select_seconds",
		"Computation time for one selection (prediction reuse included), sampled: one computed selection in 64 is timed.",
		metrics.ExponentialBuckets(1e-6, 2.5, 14))
)

// The outcome counters, resolved once: a label lookup costs a join, a
// lock and a map probe, which every request would otherwise pay.
var (
	outcomeServed   = mRequests.With("served")
	outcomeCached   = mRequests.With("cached")
	outcomeShed     = mRequests.With("shed")
	outcomeDeadline = mRequests.With("deadline")
	outcomeError    = mRequests.With("error")
)

// computeErrors counts the errors after admission: the computed family
// needs them, and the error outcome also counts rejections.
var computeErrors atomic.Uint64

// The families derived from the outcome counters.
var (
	_ = metrics.NewCounterFunc("acsel_query_cache_hits_total",
		"Selections served from a cache: always 0, since every selection is computed.",
		outcomeCached.Value)
	_ = metrics.NewCounterFunc("acsel_query_shed_total",
		"Requests rejected by admission control because every in-flight slot was taken.",
		outcomeShed.Value)
	_ = metrics.NewCounterFunc("acsel_query_cache_misses_total",
		"Requests that reached admission control (served, shed, past deadline, failed while computing): all of them miss, since no selection is cached.",
		func() float64 {
			return outcomeServed.Value() + outcomeShed.Value() + outcomeDeadline.Value() +
				float64(computeErrors.Load())
		})
)
