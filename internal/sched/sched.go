// Package sched implements the configuration-selection policies the
// paper evaluates (§V-A): an oracle with perfect knowledge, the
// state-of-the-practice RAPL-style frequency-limiting baselines CPU+FL
// and GPU+FL, the model-driven selector, and the combination Model+FL.
//
// All policies consume a kernel's true measured behaviour through the
// Truth interface. The three FL policies share one limiter loop, which
// reads the power of its current configuration and steps P-states,
// like the hardware limiter the paper simulates. It reads power through
// one of three readers: the exact truth (Decide), a sensor believed at
// face value (DecideNaive) or a sensor behind a sanity gate and
// redundant reads (DecideHardened). All three entry points dispatch
// through one method switch.
package sched

import (
	"errors"
	"fmt"
	"math"

	"acsel/internal/apu"
	"acsel/internal/core"
)

// Method enumerates the power-limiting policies.
type Method int

const (
	// MethodOracle has perfect knowledge of the kernel's behaviour.
	MethodOracle Method = iota
	// MethodModel uses the predicted frontier without feedback.
	MethodModel
	// MethodModelFL combines the model's device/thread selection with a
	// frequency limiter driven by measured power.
	MethodModelFL
	// MethodCPUFL runs all CPU cores, GPU parked, and lets the
	// frequency limiter set CPU P-states.
	MethodCPUFL
	// MethodGPUFL runs on the GPU at maximum frequency with the CPU at
	// minimum, limits GPU P-states, then raises CPU frequency into any
	// remaining headroom.
	MethodGPUFL
)

// Methods lists every policy in presentation order (Table III).
func Methods() []Method {
	return []Method{MethodModel, MethodModelFL, MethodGPUFL, MethodCPUFL}
}

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case MethodOracle:
		return "Oracle"
	case MethodModel:
		return "Model"
	case MethodModelFL:
		return "Model+FL"
	case MethodCPUFL:
		return "CPU+FL"
	case MethodGPUFL:
		return "GPU+FL"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Truth exposes a kernel's true behaviour per configuration — what the
// hardware would measure. The evaluation backs it with the offline
// characterization's per-config means.
type Truth interface {
	// PerfAt returns true throughput at a configuration ID.
	PerfAt(configID int) float64
	// PowerAt returns true package power at a configuration ID.
	PowerAt(configID int) float64
}

// ProfileTruth adapts a KernelProfile to Truth.
type ProfileTruth struct{ Profile *core.KernelProfile }

// PerfAt implements Truth.
func (t ProfileTruth) PerfAt(id int) float64 { return t.Profile.Stats[id].MeanPerf }

// PowerAt implements Truth.
func (t ProfileTruth) PowerAt(id int) float64 { return t.Profile.Stats[id].MeanPower }

// Decision is a policy's final configuration choice for one kernel at
// one power cap, with the true behaviour it obtains.
type Decision struct {
	Method    Method
	ConfigID  int
	Config    apu.Config
	TruePerf  float64
	TruePower float64
	// FLSteps counts frequency-limiter iterations taken.
	FLSteps int
}

// capSlack absorbs floating-point comparison noise when checking caps.
const capSlack = 1e-9

// MeetsCap reports whether the decision's true power respects the cap.
func (d Decision) MeetsCap(capW float64) bool { return d.TruePower <= capW+capSlack }

// Runner evaluates policies over a configuration space. Model may be
// nil when only oracle and FL baselines are used.
type Runner struct {
	Space *apu.Space
	Model *core.Model
	// VarAwareZ is the §VI variance-aware margin the model-based
	// policies select with (predicted power + z·σ ≤ cap); 0 selects on
	// predicted power alone. It must not be negative.
	VarAwareZ float64
}

// ErrNeedModel is returned when a model-based method runs without one.
var ErrNeedModel = errors.New("sched: method requires a trained model")

// ErrEmptySpace is returned when a policy runs over an empty
// configuration space. Every policy ultimately indexes
// Space.Configs[id] with its chosen ID; with no configurations there
// is no valid ID (Oracle's fallback stays -1, the FL baselines' IDOf
// misses), so without this guard Decide would panic instead of
// erroring.
var ErrEmptySpace = errors.New("sched: empty configuration space")

// Decide runs one policy for a kernel under a power cap: true
// behaviour comes from truth, and the model-based policies select
// through preds, the kernel's predictions from Model.PredictAll
// compiled by core.NewSelector. A caller predicts once per kernel and
// reuses preds at every cap; the other policies ignore it, so they may
// pass nil. The frequency limiter reads the exact true power.
func (r *Runner) Decide(m Method, truth Truth, preds *core.Selector, capW float64) (Decision, error) {
	return r.decide(m, truth, preds, capW, exact{truth}, true)
}

// reader is how the frequency limiter reads power.
type reader interface {
	// read returns the power of configuration id at limiter step step,
	// and whether the limiter may trust it.
	read(id, step int) (w float64, trusted bool)
}

// exact reads the true power: every reading is trusted.
type exact struct{ truth Truth }

func (e exact) read(id, _ int) (float64, bool) { return e.truth.PowerAt(id), true }

// decide runs method m with the frequency limiter reading power through
// rd. raise enables GPU+FL's raise-CPU-into-headroom phase.
func (r *Runner) decide(m Method, truth Truth, preds *core.Selector, capW float64, rd reader, raise bool) (Decision, error) {
	if r.Space == nil || r.Space.Len() == 0 {
		return Decision{}, fmt.Errorf("%w: cannot run %s", ErrEmptySpace, m)
	}
	switch m {
	case MethodOracle:
		return r.Oracle(truth, capW), nil
	case MethodCPUFL:
		// All cores, GPU parked, CPU P-state stepped down from maximum.
		start := apu.Config{
			Device:     apu.CPUDevice,
			CPUFreqGHz: apu.MaxCPUFreq(),
			Threads:    apu.NumCores,
			GPUFreqGHz: apu.MinGPUFreq(),
		}
		return r.limit(m, truth, preds, rd, start, capW, false), nil
	case MethodGPUFL:
		// GPU at maximum, CPU at minimum: the GPU P-state steps down,
		// then the CPU frequency rises into any remaining headroom.
		start := apu.Config{
			Device:     apu.GPUDevice,
			CPUFreqGHz: apu.MinCPUFreq(),
			Threads:    1,
			GPUFreqGHz: apu.MaxGPUFreq(),
		}
		return r.limit(m, truth, preds, rd, start, capW, raise), nil
	case MethodModel, MethodModelFL:
		if r.Model == nil {
			return Decision{}, ErrNeedModel
		}
		sel, err := preds.Select(capW, r.VarAwareZ)
		if err != nil {
			return Decision{}, err
		}
		if !sel.MeetsCapPredicted {
			mFallback.With(m.String()).Inc()
		}
		if m == MethodModel {
			// The model's prediction applied directly, with no feedback.
			return r.finish(m, truth, sel.ConfigID, 0), nil
		}
		// The model picks the device and thread count, the structural
		// choices the limiter cannot make; the limiter sets frequencies.
		return r.limit(m, truth, preds, rd, sel.Config, capW, false), nil
	}
	return Decision{}, fmt.Errorf("sched: unknown method %d", int(m))
}

// Oracle selects the highest-true-performance configuration with true
// power within the cap; if none fits it falls back to the
// minimum-power configuration (§V-B: a method "may fail to meet a power
// constraint by selecting a configuration that cannot be sufficiently
// scaled via DVFS" — the oracle's floor is the machine's floor).
func (r *Runner) Oracle(truth Truth, capW float64) Decision {
	bestID, fbID := -1, -1
	bestPerf, minPow := math.Inf(-1), math.Inf(1)
	for id := 0; id < r.Space.Len(); id++ {
		p, w := truth.PerfAt(id), truth.PowerAt(id)
		if w <= capW+capSlack && p > bestPerf {
			bestPerf, bestID = p, id
		}
		if w < minPow {
			minPow, fbID = w, id
		}
	}
	id := bestID
	if id < 0 {
		id = fbID
		mFallback.With(MethodOracle.String()).Inc()
	}
	return r.finish(MethodOracle, truth, id, 0)
}

func (r *Runner) finish(m Method, truth Truth, id, flSteps int) Decision {
	mDecisions.With(m.String()).Inc()
	mFLSteps.Add(float64(flSteps))
	return Decision{
		Method:    m,
		ConfigID:  id,
		Config:    r.Space.Configs[id],
		TruePerf:  truth.PerfAt(id),
		TruePower: truth.PowerAt(id),
		FLSteps:   flSteps,
	}
}

// limit is the frequency limiter of CPU+FL, GPU+FL and Model+FL. From
// cfg it reads power through rd and, while a reading is over the cap
// or untrusted, steps a P-state down: the GPU first on GPU
// configurations, then the CPU. After hardenedMaxDistrust untrusted
// readings it abandons feedback and takes the method's floor. With
// raise, a configuration that fits then raises the CPU frequency while
// the cap still holds (§V-A).
func (r *Runner) limit(m Method, truth Truth, preds *core.Selector, rd reader, cfg apu.Config, capW float64, raise bool) Decision {
	steps, distrust := 0, 0
	for {
		id := r.Space.IDOf(cfg)
		w, trusted := rd.read(id, steps)
		if trusted && w <= capW+capSlack {
			break
		}
		if !trusted {
			if distrust++; distrust >= hardenedMaxDistrust {
				return r.finish(m, truth, r.floor(m, preds, cfg), steps)
			}
		}
		if cfg.Device == apu.GPUDevice {
			if next, ok := apu.StepDownGPU(cfg.GPUFreqGHz); ok {
				cfg.GPUFreqGHz = next
				steps++
				continue
			}
		}
		next, ok := apu.StepDownCPU(cfg.CPUFreqGHz)
		if !ok {
			return r.finish(m, truth, id, steps)
		}
		cfg.CPUFreqGHz = next
		steps++
	}
	for raise {
		next, ok := apu.StepUpCPU(cfg.CPUFreqGHz)
		if !ok {
			break
		}
		trial := cfg
		trial.CPUFreqGHz = next
		if w, trusted := rd.read(r.Space.IDOf(trial), steps); !trusted || w > capW+capSlack {
			break
		}
		cfg = trial
		steps++
	}
	return r.finish(m, truth, r.Space.IDOf(cfg), steps)
}

// floor is the configuration a limiter that cannot trust its sensor
// falls to. For Model+FL it is the model's minimum-predicted-power
// configuration, by the rule of the runtime's min-power rung: Select
// at cap −Inf with z = 0. Otherwise it is cfg with every steppable
// frequency at its minimum, the bottom of the limiter's line.
func (r *Runner) floor(m Method, preds *core.Selector, cfg apu.Config) int {
	if m == MethodModelFL {
		if sel, err := preds.Select(math.Inf(-1), 0); err == nil {
			return sel.ConfigID
		}
	}
	cfg.CPUFreqGHz = apu.MinCPUFreq()
	if cfg.Device == apu.GPUDevice {
		cfg.GPUFreqGHz = apu.MinGPUFreq()
	}
	return r.Space.IDOf(cfg)
}
