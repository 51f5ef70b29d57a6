// Package rts is the adaptive runtime system the paper's profiling
// library is "designed to provide a foundation for" (§III-D): it
// executes an application's kernels iteration by iteration, spends each
// kernel's first two iterations on the sample configurations (§III-C),
// classifies the kernel and caches its per-configuration predictions,
// pins the kernel to the best predicted configuration under the current
// power cap, and thereafter re-selects among the cached predictions
// (core.SelectAmong, through its compiled core.Selector) whenever the
// cap changes — without re-profiling.
// An optional feedback limiter steps the pinned configuration's
// frequency down when measured power exceeds the cap.
package rts

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"acsel/internal/acpi"
	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/power"
	"acsel/internal/profiler"
	"acsel/internal/rapl"
	"acsel/internal/stats"
)

// Phase describes where a kernel is in its adaptation lifecycle.
type Phase int

const (
	// PhaseSampleCPU is the first iteration (CPU sample config).
	PhaseSampleCPU Phase = iota
	// PhaseSampleGPU is the second iteration (GPU sample config).
	PhaseSampleGPU
	// PhasePinned is every subsequent iteration (selected config).
	PhasePinned
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseSampleCPU:
		return "sample-cpu"
	case PhaseSampleGPU:
		return "sample-gpu"
	case PhasePinned:
		return "pinned"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Options configures the runtime.
type Options struct {
	// CapW is the initial node power cap.
	CapW float64
	// FL enables the feedback frequency limiter on pinned kernels.
	FL bool
	// VarAwareZ is the variance-aware selection margin (§VI): predicted
	// power + z·σ must fit under the cap. It must be finite and
	// non-negative; 0 selects on predicted power alone.
	VarAwareZ float64

	// Faults wires a deterministic fault plan into the runtime's
	// hardware seams (SMU, P-states, counters, kernel iterations) and
	// implicitly arms the watchdog. Nil runs clean.
	Faults *fault.Injector
	// Watchdog arms the cap-violation watchdog and degradation ladder
	// even without fault injection (production posture). With both
	// Faults nil and Watchdog false no kernel leaves its base rung and
	// Summary.Health stays nil.
	Watchdog bool
}

// Rung is a kernel's position on the graceful-degradation ladder. The
// runtime starts every kernel at the most aggressive rung its options
// allow and demotes one rung at a time when measured power diverges
// from predicted or violates the cap; sustained healthy readings
// promote it back up.
type Rung int

const (
	// RungModel trusts the model's selection outright (the paper's
	// Model method).
	RungModel Rung = iota
	// RungModelFL adds the measured-power feedback limiter on top of
	// the model's selection (Model+FL).
	RungModelFL
	// RungMinPower abandons performance and pins the minimum
	// predicted-power configuration — the conservative floor a node
	// falls to when its sensors or predictions cannot be trusted.
	RungMinPower
)

// String names the rung.
func (r Rung) String() string {
	switch r {
	case RungModel:
		return "model"
	case RungModelFL:
		return "model+fl"
	case RungMinPower:
		return "min-power"
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// Step reports one executed kernel iteration.
type Step struct {
	Kernel    string
	Phase     Phase
	Config    apu.Config
	Cluster   int // valid from PhasePinned on; -1 before
	TimeSec   float64
	PowerW    float64
	EnergyJ   float64
	UnderCap  bool
	Iteration int

	// Robustness annotations; zero values on clean runs.
	Rung Rung
	// Quarantined marks a step whose power reading failed the sanity
	// gate (implausible wattage): PowerW holds the model's estimate
	// instead of the sensor's claim, and the step is excluded from
	// Violations because the truth is unknown.
	Quarantined bool
	// SensorLost marks a step with no reading at all after bounded
	// dropout retries; PowerW likewise falls back to the estimate.
	SensorLost bool
}

// Trusted reports whether the step's power reading came from a
// healthy sensor.
func (s Step) Trusted() bool { return !s.Quarantined && !s.SensorLost }

// KernelRecord is one kernel's learned and health state: everything a
// snapshot persists about it. Predictions are not part of it; they
// are a function of the model and the two samples.
type KernelRecord struct {
	Iter      int             `json:"iter"`
	CPUSample profiler.Sample `json:"cpu_sample"`
	GPUSample profiler.Sample `json:"gpu_sample"`
	Cluster   int             `json:"cluster"`
	Pinned    apu.Config      `json:"pinned"`
	PinnedCap float64         `json:"pinned_cap"` // cap the pin was chosen for

	// Degradation-ladder state. Only an armed watchdog (Options.Watchdog
	// or a fault plan) moves the rung and the health streaks.
	Rung      Rung `json:"rung"`
	BaseRung  Rung `json:"base_rung"` // rung recovery stops at (ModelFL when FL opt is on)
	Healthy   int  `json:"healthy"`   // consecutive healthy pinned iterations
	Unhealthy int  `json:"unhealthy"` // consecutive unhealthy pinned iterations
	// DivEWMA smooths the relative error |measured−predicted|/predicted
	// of the running configuration's power over DivSamples trusted
	// readings since the last reselection or ladder move.
	DivEWMA    float64 `json:"div_ewma"`
	DivSamples int     `json:"div_samples"`
	// Applied is the config the hardware actually holds (nil before
	// the first successful apply). It is re-pointed, never written
	// through, so a snapshot may share it.
	Applied *apu.Config `json:"applied,omitempty"`

	Demotions     int     `json:"demotions"`
	Recoveries    int     `json:"recoveries"`
	Quarantined   int     `json:"quarantined"`
	Dropouts      int     `json:"dropouts"`
	ApplyRetries  int     `json:"apply_retries"`
	ApplyFailures int     `json:"apply_failures"`
	BackoffSec    float64 `json:"backoff_sec"`
}

// kernelState tracks one kernel's adaptation: its record, and the
// predictions adapt (or Restore) derived from the record's samples.
type kernelState struct {
	KernelRecord
	preds    []core.Prediction
	selector *core.Selector // preds compiled for Cluster; set with preds
}

// divAlpha is the weight of the newest reading in the divergence
// EWMA: high enough that three consecutive bad readings dominate the
// average, low enough that one does not.
const divAlpha = 0.5

// observeDivergence folds one (predicted, measured) watt pair into the
// kernel's divergence EWMA. Non-finite or non-positive inputs are
// ignored; the sanity gate quarantines those upstream.
func (r *KernelRecord) observeDivergence(predictedW, measuredW float64) {
	if !usableW(predictedW) || !usableW(measuredW) {
		return
	}
	rel := math.Abs(measuredW-predictedW) / predictedW
	if r.DivSamples == 0 {
		r.DivEWMA = rel
	} else {
		r.DivEWMA = divAlpha*rel + (1-divAlpha)*r.DivEWMA
	}
	r.DivSamples++
}

// diverged reports whether the divergence EWMA exceeds frac; false
// before any reading.
func (r *KernelRecord) diverged(frac float64) bool { return r.DivSamples > 0 && r.DivEWMA > frac }

// resetDivergence clears the EWMA when the prediction it compares
// against no longer describes the running config (reselection, a
// ladder move).
func (r *KernelRecord) resetDivergence() { r.DivEWMA, r.DivSamples = 0, 0 }

func usableW(w float64) bool { return !math.IsNaN(w) && !math.IsInf(w, 0) && w > 0 }

// KernelHealth is one kernel's robustness state, surfaced through
// Summary.Health when the watchdog is armed.
type KernelHealth struct {
	// Rung is where the kernel currently sits on the degradation
	// ladder.
	Rung Rung
	// Demotions and Recoveries count ladder moves down and back up.
	Demotions  int
	Recoveries int
	// Quarantined counts readings rejected by the sanity gate;
	// Dropouts counts sensor dropout events (including retried reads).
	Quarantined int
	Dropouts    int
	// ApplyRetries and ApplyFailures count P-state transition retries
	// and attempts that exhausted the retry budget; BackoffSec is the
	// cumulative booked retry backoff.
	ApplyRetries  int
	ApplyFailures int
	BackoffSec    float64
	// Divergence is the kernel's current smoothed
	// |measured−predicted|/predicted power error.
	Divergence float64
}

// Runtime executes kernels adaptively.
type Runtime struct {
	prof  *profiler.Profiler
	model *core.Model
	pm    *acpi.Manager
	opts  Options

	// Watchdog thresholds, fixed in New: the smoothed
	// |measured−predicted|/predicted power divergence beyond which an
	// iteration counts as unhealthy, the consecutive unhealthy
	// (healthy) pinned iterations that demote (promote) a kernel one
	// rung, and the retry budgets for transient P-state transition
	// failures and sensor dropouts.
	divergeFrac    float64
	demoteAfter    int
	promoteAfter   int
	applyRetries   int
	measureRetries int

	// mu guards everything below. RunKernel holds it for the whole
	// iteration, so readers see the state between two iterations,
	// never the middle of one.
	mu      sync.Mutex
	capW    float64
	kernels map[string]*kernelState
	// gen moves whenever a kernel's cached predictions are set (adapt,
	// Restore); see Generation.
	gen   uint64
	steps stepLog
}

// StepWindow is how many of the most recent steps a runtime retains
// (Steps, LastSteps, Snapshot). Older steps survive only in the
// running totals, so a runtime's memory and snapshot size do not grow
// with the number of steps it has executed. It covers the longest
// window a caller reads: one application timestep (20 kernels for
// LULESH).
const StepWindow = 64

// ErrNoModel is returned when constructing a runtime without a model.
var ErrNoModel = errors.New("rts: nil model")

// ErrBadCap is returned when a power cap is NaN, infinite, or not
// positive.
var ErrBadCap = errors.New("rts: power cap must be a positive finite wattage")

func validCapW(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return fmt.Errorf("%w: got %v", ErrBadCap, w)
	}
	return nil
}

// ErrBadZ is returned when Options.VarAwareZ is negative, NaN, or
// infinite.
var ErrBadZ = errors.New("rts: variance-aware z must be finite and non-negative")

// New creates a runtime over a trained model. A fault plan in the
// options is wired through to the profiler's hardware seams and the
// P-state manager.
func New(model *core.Model, opts Options) (*Runtime, error) {
	if model == nil {
		return nil, ErrNoModel
	}
	if err := validCapW(opts.CapW); err != nil {
		return nil, err
	}
	if z := opts.VarAwareZ; math.IsNaN(z) || math.IsInf(z, 0) || z < 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBadZ, z)
	}
	rt := &Runtime{
		prof:           profiler.New(),
		model:          model,
		pm:             acpi.NewManager(),
		opts:           opts,
		divergeFrac:    0.35,
		demoteAfter:    2,
		promoteAfter:   4,
		applyRetries:   3,
		measureRetries: 2,
		capW:           opts.CapW,
		kernels:        map[string]*kernelState{},
	}
	rt.prof.Faults = opts.Faults
	rt.pm.SetFaultInjector(opts.Faults)
	return rt, nil
}

// ladderArmed reports whether the watchdog and degradation ladder are
// active. They arm automatically under fault injection. It gates only
// the watchdog's decisions — the health streaks, the divergence EWMA,
// demote and promote, and Summary.Health; every iteration is applied
// and measured the same way either way.
func (rt *Runtime) ladderArmed() bool { return rt.opts.Watchdog || rt.opts.Faults != nil }

// Profiler exposes the runtime's profiling library. The runtime leaves
// its sample history off (profiler.Profiler.KeepHistory): no decision
// reads it, and a long-running runtime would otherwise keep every
// sample it ever took.
func (rt *Runtime) Profiler() *profiler.Profiler { return rt.prof }

// VarAwareZ returns the variance-aware margin the runtime selects with
// (Options.VarAwareZ, fixed at New).
func (rt *Runtime) VarAwareZ() float64 { return rt.opts.VarAwareZ }

// PStates exposes the ACPI manager, for inspecting DVFS state.
func (rt *Runtime) PStates() *acpi.Manager { return rt.pm }

// SetCap updates the power cap. Already-pinned kernels re-select among
// their cached predictions on their next iteration. NaN,
// infinite, and non-positive wattages are rejected: a NaN cap would
// silently disable every under-cap comparison downstream.
func (rt *Runtime) SetCap(w float64) error {
	if err := validCapW(w); err != nil {
		return err
	}
	rt.mu.Lock()
	rt.capW = w
	rt.mu.Unlock()
	return nil
}

// Cap returns the current power cap.
func (rt *Runtime) Cap() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.capW
}

// RunKernel executes the next iteration of kernel k under the runtime's
// adaptation policy and returns the step record.
func (rt *Runtime) RunKernel(k kernels.Kernel) (Step, error) {
	return rt.RunKernelAt(k, "")
}

// RunKernelAt is RunKernel with an explicit call-site context: the
// paper's §VI extension ("the runtime could use call stacks to
// differentiate between invocations of the same kernel from distinct
// points in the application"). Distinct call sites adapt independently
// — each gets its own sampling iterations, classification, and pinned
// configuration — because the same kernel invoked from different phases
// often sees different inputs.
func (rt *Runtime) RunKernelAt(k kernels.Kernel, callsite string) (Step, error) {
	key := k.ID()
	if callsite != "" {
		key += "@" + callsite
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[key]
	if !ok {
		st = &kernelState{KernelRecord: KernelRecord{Cluster: -1}}
		if rt.opts.FL {
			st.Rung = RungModelFL
		}
		st.BaseRung = st.Rung
		rt.kernels[key] = st
	}
	capW := rt.capW

	var step Step
	switch {
	case st.Iter == 0:
		s, meta, err := rt.measure(k, st, apu.SampleConfigCPU())
		if err != nil {
			return Step{}, err
		}
		st.CPUSample = s
		step = newStep(k, st, PhaseSampleCPU, s, capW, meta)
	case st.Iter == 1:
		s, meta, err := rt.measure(k, st, apu.SampleConfigGPU())
		if err != nil {
			return Step{}, err
		}
		st.GPUSample = s
		if err := rt.adapt(st, capW); err != nil {
			return Step{}, err
		}
		step = newStep(k, st, PhaseSampleGPU, s, capW, meta)
	default:
		s, err := rt.runPinned(k, st, key, capW)
		if err != nil {
			return Step{}, err
		}
		step = s
	}
	st.Iter++
	rt.steps.record(step)
	return step, nil
}

// measure runs iteration st.Iter of k at cfg. A sensor dropout is
// re-read up to the retry budget; a dropout that persists, or an
// implausible reading, is counted against the kernel and marked in the
// returned stepMeta (sensorLost, quarantined) instead of failing the
// iteration. On a sample iteration the degraded reading — zero power
// after a dropout, the claimed wattage after an implausible one — flows
// into classification, and the resulting misprediction is exactly what
// the degradation ladder exists to catch. Any other error is returned.
func (rt *Runtime) measure(k kernels.Kernel, st *kernelState, cfg apu.Config) (profiler.Sample, stepMeta, error) {
	s, err := rt.prof.RunConfigAttempt(k, cfg, st.Iter, 0)
	for a := 1; errors.Is(err, power.ErrSensorDropout) && a <= rt.measureRetries; a++ {
		st.Dropouts++
		mDropouts.Inc()
		s, err = rt.prof.RunConfigAttempt(k, cfg, st.Iter, a)
	}
	meta := stepMeta{rung: st.Rung}
	switch {
	case err == nil:
	case errors.Is(err, power.ErrSensorDropout):
		st.Dropouts++
		mDropouts.Inc()
		meta.sensorLost = true
	case errors.Is(err, power.ErrImplausibleReading):
		st.Quarantined++
		mQuarantined.Inc()
		meta.quarantined = true
	default:
		return s, meta, err
	}
	return s, meta, nil
}

// runPinned executes one pinned iteration: re-selection on cap change,
// the P-state apply (with bounded retry), the measured run (with
// dropout re-reads and the sanity gate), the feedback limiter, and,
// with the watchdog armed, its health bookkeeping.
func (rt *Runtime) runPinned(k kernels.Kernel, st *kernelState, key string, capW float64) (Step, error) {
	if !stats.AlmostEqual(st.PinnedCap, capW) {
		// Cap changed: re-select from cached predictions (no re-profiling).
		if err := rt.reselect(st, capW); err != nil {
			return Step{}, err
		}
		st.resetDivergence()
	}

	runCfg := st.Pinned
	if err := rt.applyWithRetry(st, key); err != nil {
		if !errors.Is(err, acpi.ErrTransitionFailed) {
			return Step{}, err
		}
		// Retry budget exhausted: the transition never happened, so the
		// hardware kept whatever configuration it last held. Run there
		// and let the watchdog see the consequences.
		st.ApplyFailures++
		mApplyFailures.Inc()
		if st.Applied != nil {
			runCfg = *st.Applied
		}
	} else if st.Applied == nil || *st.Applied != st.Pinned {
		// Re-pointed only when the pin moved, so a steady pinned step
		// allocates nothing here.
		cp := st.Pinned
		st.Applied = &cp
	}

	s, meta, err := rt.measure(k, st, runCfg)
	if err != nil {
		return Step{}, err
	}
	trusted := !meta.quarantined && !meta.sensorLost
	if !trusted {
		// Sanity gate: the reading is quarantined. Control decisions and
		// energy accounting fall back to the model's prediction for the
		// configuration that actually ran.
		meta.estimateW = rt.predictedW(st, runCfg)
	}

	measured := s.TotalPowerW()
	// FL runs when the options ask for it or the ladder has demoted the
	// kernel onto its rung; an unarmed runtime never leaves its base
	// rung (only demote and promote move it).
	flActive := rt.opts.FL || st.Rung >= RungModelFL
	if flActive && trusted && measured > capW {
		// Feedback: step the pinned configuration down for future
		// iterations (GPU knob first on GPU configs, then CPU).
		policy := rapl.PolicyCPU
		if st.Pinned.Device == apu.GPUDevice {
			policy = rapl.PolicyGPU
		}
		if next, changed := rapl.Step(st.Pinned, rapl.StepDown, policy); changed {
			st.Pinned = next
		}
	}

	if rt.ladderArmed() {
		if trusted {
			st.observeDivergence(rt.predictedW(st, runCfg), measured)
			mDivergence.Set(st.DivEWMA)
			if measured > capW || st.diverged(rt.divergeFrac) {
				st.Unhealthy++
				st.Healthy = 0
			} else {
				st.Healthy++
				st.Unhealthy = 0
			}
		} else {
			// A blind iteration cannot confirm the cap held; it counts
			// against the kernel's health.
			st.Unhealthy++
			st.Healthy = 0
		}
		if st.Unhealthy >= rt.demoteAfter {
			if err := rt.demote(st, capW); err != nil {
				return Step{}, err
			}
		} else if st.Rung > st.BaseRung && st.Healthy >= rt.promoteAfter {
			rt.promote(st, capW)
		}
	}
	return newStep(k, st, PhasePinned, s, capW, meta), nil
}

// applyWithRetry drives the pinned configuration into the P-state
// manager, retrying transient transition failures up to the retry
// budget. Each retry is a fresh deterministic fault event (the attempt
// ordinal keys it), and the exponential backoff between attempts is
// booked into the kernel's health record rather than slept — the
// simulation has no wall clock. A nil injector never fires, so the
// event key is built only when a plan is wired.
func (rt *Runtime) applyWithRetry(st *kernelState, key string) error {
	var evKey string
	if rt.opts.Faults != nil {
		evKey = fmt.Sprintf("%s#i%d", key, st.Iter)
	}
	var err error
	for attempt := 0; attempt <= rt.applyRetries; attempt++ {
		if attempt > 0 {
			st.ApplyRetries++
			mPStateRetries.Inc()
			st.BackoffSec += acpi.TransitionLatencySec * float64(int(1)<<uint(attempt-1))
		}
		err = rt.pm.ApplyFor(st.Pinned, evKey, attempt)
		if err == nil || !errors.Is(err, acpi.ErrTransitionFailed) {
			return err
		}
	}
	return err
}

// demote walks the kernel one rung down the ladder and, at the
// bottom, pins the minimum predicted-power configuration.
func (rt *Runtime) demote(st *kernelState, capW float64) error {
	st.Unhealthy, st.Healthy = 0, 0
	if st.Rung >= RungMinPower {
		return nil
	}
	st.Rung++
	st.Demotions++
	mLadderTransitions.With("demote").Inc()
	st.resetDivergence()
	if st.Rung == RungMinPower {
		return rt.reselect(st, capW)
	}
	return nil
}

// promote walks the kernel one rung back up after sustained healthy
// readings and re-selects the configuration for the restored rung.
func (rt *Runtime) promote(st *kernelState, capW float64) {
	st.Unhealthy, st.Healthy = 0, 0
	if st.Rung <= st.BaseRung {
		return
	}
	st.Rung--
	st.Recoveries++
	st.resetDivergence()
	if err := rt.reselect(st, capW); err != nil {
		// reselect only fails before adaptation; stay demoted.
		st.Rung++
		st.Recoveries--
		return
	}
	mLadderTransitions.With("promote").Inc()
}

// predictedW returns the model's predicted package power for cfg, or
// NaN if the kernel has no cached prediction for it. Predictions are
// cached in config-ID order (core.Model.PredictAll).
func (rt *Runtime) predictedW(st *kernelState, cfg apu.Config) float64 {
	id := rt.model.Space.IDOf(cfg)
	if id < 0 || id >= len(st.preds) {
		return math.NaN()
	}
	return st.preds[id].PowerW
}

// adapt classifies the kernel from its two samples, caches its
// predictions, and pins the initial configuration.
func (rt *Runtime) adapt(st *kernelState, capW float64) error {
	preds, cluster, err := rt.model.PredictAll(core.SampleRuns{CPU: st.CPUSample, GPU: st.GPUSample})
	if err != nil {
		return err
	}
	st.Cluster = cluster
	st.setPredictions(preds)
	rt.gen++
	return rt.reselect(st, capW)
}

// setPredictions caches an adapted kernel's predictions and compiles
// them for selection in its cluster.
func (st *kernelState) setPredictions(preds []core.Prediction) {
	st.preds = preds
	st.selector = core.NewSelector(preds, st.Cluster)
}

// reselect pins the configuration core.SelectAmong picks from the
// cached predictions for capW, selecting through their compiled
// core.Selector. A kernel on the bottom rung of the ladder stays
// floored at minimum predicted power regardless of what the cap would
// allow — recovery goes through promote, not through a cap change.
// The floor is SelectAmong's fallback: selecting under a cap of −Inf
// with no margin fits nothing.
func (rt *Runtime) reselect(st *kernelState, capW float64) error {
	if st.preds == nil {
		return errors.New("rts: reselect before adaptation")
	}
	floored := st.Rung == RungMinPower
	selCapW, z := capW, rt.opts.VarAwareZ
	if floored {
		selCapW, z = math.Inf(-1), 0
	}
	sel, err := st.selector.Select(selCapW, z)
	if err != nil {
		return err
	}
	if !sel.MeetsCapPredicted && !floored {
		mReselectFallback.Inc()
	}
	st.Pinned = sel.Config
	st.PinnedCap = capW
	return nil
}

// stepMeta carries per-step robustness annotations into newStep.
type stepMeta struct {
	rung        Rung
	quarantined bool
	sensorLost  bool
	// estimateW replaces the sensor's claim in the step record when
	// the reading was quarantined or lost (the model's prediction for
	// the configuration that ran, or 0 when none exists yet).
	estimateW float64
}

// newStep builds the record of an executed iteration and counts it in
// the step metrics.
func newStep(k kernels.Kernel, st *kernelState, ph Phase, s profiler.Sample, capW float64, meta stepMeta) Step {
	powerW := s.TotalPowerW()
	if meta.quarantined || meta.sensorLost {
		powerW = meta.estimateW
		if math.IsNaN(powerW) || math.IsInf(powerW, 0) || powerW < 0 {
			powerW = 0
		}
	}
	step := Step{
		Kernel:      k.ID(),
		Phase:       ph,
		Config:      s.Config,
		Cluster:     st.Cluster,
		TimeSec:     s.TimeSec,
		PowerW:      powerW,
		EnergyJ:     powerW * s.TimeSec,
		UnderCap:    powerW <= capW,
		Iteration:   st.Iter,
		Rung:        meta.rung,
		Quarantined: meta.quarantined,
		SensorLost:  meta.sensorLost,
	}
	mSteps.With(ph.String()).Inc()
	if step.Trusted() && !step.UnderCap {
		mCapViolations.Inc()
	}
	return step
}

// stepLog is the runtime's bounded step state: running totals over
// every executed step, and a ring of the last StepWindow steps whose
// oldest entry, once the ring is full, sits at totals.Steps %
// StepWindow.
type stepLog struct {
	totals StepTotals
	recent []Step
}

// record folds an executed step into the totals and the ring.
func (l *stepLog) record(s Step) {
	if len(l.recent) < StepWindow {
		l.recent = append(l.recent, s)
	} else {
		l.recent[l.totals.Steps%StepWindow] = s
	}
	l.totals.add(s)
}

// restoredLog rebuilds a log from its totals and its retained steps,
// oldest first; len(recent) must be min(totals.Steps, StepWindow).
func restoredLog(totals StepTotals, recent []Step) stepLog {
	l := stepLog{totals: totals}
	if len(recent) > 0 {
		l.recent = make([]Step, len(recent))
		for i, s := range recent {
			l.recent[(totals.Steps-len(recent)+i)%StepWindow] = s
		}
	}
	return l
}

// last returns the last n retained steps in execution order (n is
// clamped to what the ring holds) as a fresh slice, nil when there are
// none.
func (l *stepLog) last(n int) []Step {
	size := len(l.recent)
	n = min(max(n, 0), size)
	if n == 0 {
		return nil
	}
	// The oldest step sits at index 0 until the ring fills, then in
	// the slot the next step will overwrite.
	oldest := 0
	if size == StepWindow {
		oldest = l.totals.Steps % StepWindow
	}
	out := make([]Step, n)
	for i := range out {
		out[i] = l.recent[(oldest+size-n+i)%size]
	}
	return out
}

// Steps returns the retained steps — the last StepWindow executed, or
// every step when fewer have run — in execution order.
func (rt *Runtime) Steps() []Step {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.steps.last(StepWindow)
}

// LastSteps returns a copy of the last n executed steps in order. n is
// clamped to the steps retained: all of them while fewer than
// StepWindow have run, StepWindow after.
func (rt *Runtime) LastSteps(n int) []Step {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.steps.last(n)
}

// NumSteps returns how many steps have executed.
func (rt *Runtime) NumSteps() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.steps.totals.Steps
}

// Generation counts the changes to the runtime's cached predictions:
// it moves whenever a kernel adapts or a snapshot is restored, and at
// no other time. Anything derived from AdaptedKernels and
// SelectorFor stays valid while the generation holds still.
func (rt *Runtime) Generation() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.gen
}

// StepTotals is the running aggregate of every executed step — the
// step half of a Summary, kept up to date as steps execute so that no
// step history is needed to produce it. Quarantined and lost readings
// are counted apart from Violations: the truth is unknown.
type StepTotals struct {
	Steps        int     `json:"steps"`
	TimeSec      float64 `json:"time_sec"`
	EnergyJ      float64 `json:"energy_j"`
	Violations   int     `json:"violations"`
	PinnedSteps  int     `json:"pinned_steps"`
	SampledSteps int     `json:"sampled_steps"`
	Quarantined  int     `json:"quarantined"`
	SensorLost   int     `json:"sensor_lost"`
}

// add folds one step into the totals. Steps are added in execution
// order, so the float sums equal a sequential sum over the history.
func (t *StepTotals) add(s Step) {
	t.Steps++
	t.TimeSec += s.TimeSec
	t.EnergyJ += s.EnergyJ
	switch {
	case s.Quarantined:
		t.Quarantined++
	case s.SensorLost:
		t.SensorLost++
	case !s.UnderCap:
		t.Violations++
	}
	if s.Phase == PhasePinned {
		t.PinnedSteps++
	} else {
		t.SampledSteps++
	}
}

// Summary aggregates a run.
type Summary struct {
	Steps        int
	TimeSec      float64
	EnergyJ      float64
	Violations   int
	PinnedSteps  int
	SampledSteps int

	// Robustness accounting; all zero (and Health nil) on clean runs
	// with the watchdog disarmed.
	Quarantined   int
	SensorLost    int
	Demotions     int
	Recoveries    int
	ApplyRetries  int
	ApplyFailures int
	// Health maps each kernel key to its ladder state.
	Health map[string]KernelHealth
}

// Summarize reports the run so far: the running step totals plus,
// with the watchdog armed, every kernel's ladder state.
func (rt *Runtime) Summarize() Summary {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t := rt.steps.totals
	sum := Summary{
		Steps:        t.Steps,
		TimeSec:      t.TimeSec,
		EnergyJ:      t.EnergyJ,
		Violations:   t.Violations,
		PinnedSteps:  t.PinnedSteps,
		SampledSteps: t.SampledSteps,
		Quarantined:  t.Quarantined,
		SensorLost:   t.SensorLost,
	}
	if rt.ladderArmed() {
		sum.Health = make(map[string]KernelHealth, len(rt.kernels))
		for key, st := range rt.kernels {
			h := rt.healthOf(st)
			sum.Health[key] = h
			sum.Demotions += h.Demotions
			sum.Recoveries += h.Recoveries
			sum.ApplyRetries += h.ApplyRetries
			sum.ApplyFailures += h.ApplyFailures
		}
	}
	return sum
}

func (rt *Runtime) healthOf(st *kernelState) KernelHealth {
	return KernelHealth{
		Rung:          st.Rung,
		Demotions:     st.Demotions,
		Recoveries:    st.Recoveries,
		Quarantined:   st.Quarantined,
		Dropouts:      st.Dropouts,
		ApplyRetries:  st.ApplyRetries,
		ApplyFailures: st.ApplyFailures,
		BackoffSec:    st.BackoffSec,
		Divergence:    st.DivEWMA,
	}
}

// HealthFor returns the ladder state of one kernel key (ok=false for
// unknown kernels).
func (rt *Runtime) HealthFor(key string) (KernelHealth, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[key]
	if !ok {
		return KernelHealth{}, false
	}
	return rt.healthOf(st), true
}

// SelectionFor returns the currently pinned configuration of a kernel
// (ok=false before its two sample iterations complete). For call-site
// differentiated kernels, pass "kernelID@callsite".
func (rt *Runtime) SelectionFor(kernelID string) (apu.Config, int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[kernelID]
	if !ok || st.Iter < 2 {
		return apu.Config{}, -1, false
	}
	return st.Pinned, st.Cluster, true
}

// SelectorFor returns an adapted kernel's compiled predictions, the
// core.Selector its reselection picks through (ok=false before
// adaptation); node utility curves merge its frontier. A Selector
// never changes, so callers may keep and share it; a later adaptation
// or Restore compiles a new one.
func (rt *Runtime) SelectorFor(key string) (*core.Selector, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[key]
	if !ok || st.selector == nil {
		return nil, false
	}
	return st.selector, true
}

// AdaptedKernels lists the keys (kernel IDs, possibly with call-site
// suffixes) that have completed adaptation.
func (rt *Runtime) AdaptedKernels() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for key, st := range rt.kernels {
		if st.preds != nil {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
