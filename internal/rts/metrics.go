package rts

import "acsel/internal/metrics"

// Metric families of the adaptive runtime. The degradation ladder,
// retry loops, and quarantine gate added with the fault layer made
// decisions that previously left no quantitative trail; every control
// action now increments a counter so a scraped run (or a -metrics-dump
// snapshot) shows exactly how hard the watchdog is working.
var (
	mSteps = metrics.NewCounterVec("acsel_rts_steps_total",
		"Kernel iterations executed by the adaptive runtime, by lifecycle phase.", "phase")
	mCapViolations = metrics.NewCounter("acsel_rts_cap_violations_total",
		"Trusted power readings that exceeded the active node cap.")
	mLadderTransitions = metrics.NewCounterVec("acsel_rts_ladder_transitions_total",
		"Degradation-ladder moves, by direction (demote or promote).", "direction")
	mPStateRetries = metrics.NewCounter("acsel_rts_pstate_retries_total",
		"P-state apply attempts retried after a transient transition failure.")
	mApplyFailures = metrics.NewCounter("acsel_rts_pstate_apply_failures_total",
		"P-state transitions abandoned after exhausting the retry budget.")
	mQuarantined = metrics.NewCounter("acsel_rts_quarantined_readings_total",
		"Power readings rejected by the plausibility gate and replaced with model estimates.")
	mDropouts = metrics.NewCounter("acsel_rts_sensor_dropouts_total",
		"Sensor dropout events, including bounded re-reads.")
	mReselectFallback = metrics.NewCounter("acsel_rts_reselect_fallback_total",
		"Reselections among cached predictions where no configuration was predicted to fit under the cap, so the minimum predicted-power one was pinned.")
	mDivergence = metrics.NewGauge("acsel_rts_model_divergence_ratio",
		"Most recently observed smoothed |measured-predicted|/predicted power divergence (EWMA).")
	mRestores = metrics.NewCounter("acsel_rts_restores_total",
		"Runtime state restorations from a checkpoint snapshot.")
)
