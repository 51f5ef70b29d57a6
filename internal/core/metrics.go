package core

import "acsel/internal/metrics"

// mPhaseSeconds times the offline-stage pipeline phases: suite
// characterization, frontier-order clustering, per-cluster regression
// fitting, and classifier training. Future performance PRs get a
// measured baseline per phase instead of end-to-end anecdotes.
var mPhaseSeconds = metrics.NewHistogramVec("acsel_core_phase_seconds",
	"Wall time of offline-stage pipeline phases (characterize, cluster, regressions, classifier).",
	metrics.TimeBuckets, "phase")
