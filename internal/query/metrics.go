package query

import "acsel/internal/metrics"

// Metric families of the selection query service. Admission control is
// observable by construction: every request increments exactly one
// outcome (served, cached, shed, deadline, error), the wait between
// taking an in-flight slot and computing is a histogram, and cache
// effectiveness is a pair of counters the soak test reads back.
var (
	mRequests = metrics.NewCounterVec("acsel_query_requests_total",
		"Selection queries received, by outcome (served, cached, shed, deadline, error).",
		"outcome")
	mCacheHits = metrics.NewCounter("acsel_query_cache_hits_total",
		"Selections served from the LRU prediction cache.")
	mCacheMisses = metrics.NewCounter("acsel_query_cache_misses_total",
		"Selections that had to be computed (cache miss or cache disabled).")
	mShed = metrics.NewCounter("acsel_query_shed_total",
		"Requests rejected by admission control because every in-flight slot was taken.")
	mReloads = metrics.NewCounter("acsel_query_model_reloads_total",
		"Hot model reloads applied via atomic generation swap.")
	mQueueWait = metrics.NewHistogram("acsel_query_queue_wait_seconds",
		"Time from a cache miss taking its in-flight slot to the start of its computation.",
		metrics.ExponentialBuckets(1e-5, 2.5, 14))
	mSelectSeconds = metrics.NewHistogram("acsel_query_select_seconds",
		"Computation time for one selection (prediction reuse included).",
		metrics.ExponentialBuckets(1e-6, 2.5, 14))
	mCachePurged = metrics.NewCounter("acsel_query_cache_purged_total",
		"Cached selections invalidated because their model hash no longer matched the live generation.")
)
