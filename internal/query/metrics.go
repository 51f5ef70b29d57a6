package query

import (
	"sync/atomic"

	"acsel/internal/metrics"
)

// Metric families of the selection query service. Every request is
// counted once, by its outcome (served, cached, shed, deadline, error);
// the hit, shed and miss families are derived from those counts at
// export, so no request pays for a second count. Cache effectiveness is
// also counted as declined inserts and purged entries, and computation
// time is a histogram.
var (
	mRequests = metrics.NewCounterVec("acsel_query_requests_total",
		"Selection queries received, by outcome (served, cached, shed, deadline, error).",
		"outcome")
	mCacheDeclined = metrics.NewCounter("acsel_query_cache_declined_total",
		"Computed selections the cache did not insert because it was their key's first miss.")
	mReloads = metrics.NewCounter("acsel_query_model_reloads_total",
		"Hot model reloads applied via atomic generation swap.")
	mSelectSeconds = metrics.NewHistogram("acsel_query_select_seconds",
		"Computation time for one selection (prediction reuse included).",
		metrics.ExponentialBuckets(1e-6, 2.5, 14))
	mCachePurged = metrics.NewCounter("acsel_query_cache_purged_total",
		"Cached selections invalidated because their model hash no longer matched the live generation.")
)

// The outcome counters, resolved once: a label lookup costs a join, a
// lock and a map probe, which a hit would otherwise pay per request.
var (
	outcomeServed   = mRequests.With("served")
	outcomeCached   = mRequests.With("cached")
	outcomeShed     = mRequests.With("shed")
	outcomeDeadline = mRequests.With("deadline")
	outcomeError    = mRequests.With("error")
)

// computeErrors counts the errors after the cache lookup: the miss
// family needs them, and the error outcome also counts rejections.
var computeErrors atomic.Uint64

// The families derived from the outcome counters.
var (
	_ = metrics.NewCounterFunc("acsel_query_cache_hits_total",
		"Selections served from the CLOCK selection cache.",
		outcomeCached.Value)
	_ = metrics.NewCounterFunc("acsel_query_shed_total",
		"Requests rejected by admission control because every in-flight slot was taken.",
		outcomeShed.Value)
	_ = metrics.NewCounterFunc("acsel_query_cache_misses_total",
		"Selections that had to be computed (cache miss or cache disabled).",
		func() float64 {
			return outcomeServed.Value() + outcomeShed.Value() + outcomeDeadline.Value() +
				float64(computeErrors.Load())
		})
)
