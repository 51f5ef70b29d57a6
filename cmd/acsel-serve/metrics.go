package main

import "acsel/internal/metrics"

// Metric families of the serve loop itself; the checkpoint, rts, and
// supervise layers register their own.
var (
	mEpochs = metrics.NewCounter("acsel_serve_epochs_total",
		"Epochs the serve loop completed (including the epoch a recovery resumed into).")
	mDegradedSyncs = metrics.NewCounter("acsel_serve_degraded_syncs_total",
		"Per-step journal syncs forced while a seam breaker was not closed.")
	mWatchdogTimeouts = metrics.NewCounterVec("acsel_supervise_watchdog_timeouts_total",
		"Epoch deadline expiries, by watchdog name.", "watchdog")
)
