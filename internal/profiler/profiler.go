// Package profiler is the integrated profiling library of §III-D: it
// associates power and performance measurements with specific kernels,
// takes per-invocation samples of performance counters and the two SMU
// power domains, and — when asked to keep a history — records them in
// memory and serializes the profiles to disk after a run. Every caller
// receives each sample it asks for, so only a caller that wants the
// whole log later (acsel-train -profiles) turns the history on; a
// long-running runtime leaves it off and its memory stays bounded.
//
// On the real system the library is invoked through profiling pragmas
// compiled into library calls around each kernel; here Run plays both
// roles: it executes the kernel's workload on the machine model and
// records the instrumented measurement.
package profiler

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"acsel/internal/apu"
	"acsel/internal/counters"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/power"
	"acsel/internal/seeded"
)

// Sample is one instrumented kernel invocation: identification, the
// timing outcome, the SMU's integrated power measurement, and the
// counter readout. It corresponds to one row of the paper's profiling
// data set.
type Sample struct {
	KernelID  string       `json:"kernel_id"`
	Benchmark string       `json:"benchmark"`
	Input     string       `json:"input"`
	Kernel    string       `json:"kernel"`
	ConfigID  int          `json:"config_id"`
	Config    apu.Config   `json:"config"`
	Iteration int          `json:"iteration"`
	TimeSec   float64      `json:"time_sec"`
	CPUPowerW float64      `json:"cpu_power_w"`
	NBGPUW    float64      `json:"nbgpu_power_w"`
	Counters  counters.Set `json:"counters"`
}

// Perf is the sample's throughput (1/time).
func (s Sample) Perf() float64 { return 1 / s.TimeSec }

// TotalPowerW is the package power of the sample.
func (s Sample) TotalPowerW() float64 { return s.CPUPowerW + s.NBGPUW }

// Profiler measures kernel executions on a machine model through a
// simulated SMU. It is safe for concurrent use.
type Profiler struct {
	Machine *apu.Machine
	Space   *apu.Space
	SMU     *power.SMU
	// CounterNoiseRel is the relative jitter applied to counter values.
	CounterNoiseRel float64
	// Faults, when non-nil, injects deterministic hardware faults at
	// the kernel, SMU, and counter seams of every run. Nil (the
	// default) leaves all measurements byte-identical to a profiler
	// without injection wiring.
	Faults *fault.Injector
	// KeepHistory records every successful sample in memory for
	// History and WriteJSON. Off by default: the history grows with
	// every run and nothing on a decision path reads it.
	KeepHistory bool

	mu      sync.Mutex
	history []Sample
}

// New creates a profiler over the default machine, configuration space,
// and SMU.
func New() *Profiler {
	return &Profiler{
		Machine:         apu.DefaultMachine(),
		Space:           apu.NewSpace(),
		SMU:             power.DefaultSMU(),
		CounterNoiseRel: 0.01,
	}
}

// rngPool recycles the per-run noise generators. RunAttempt reseeds
// one with kernels.IterationSeed, which draws exactly the stream of a
// fresh kernels.IterationRNG but skips allocating its 5 KB state; the
// offline stage makes one run per (kernel, config, iteration).
var rngPool = sync.Pool{New: func() any { return seeded.New(0) }}

// ErrUnknownConfig is returned when a config ID is outside the space.
var ErrUnknownConfig = errors.New("profiler: unknown configuration")

// Run executes one iteration of kernel k at configuration cfgID and
// records the sample. All noise derives from the (kernel, config,
// iteration) identity, so repeated calls return identical samples and
// whole experiments are reproducible.
func (p *Profiler) Run(k kernels.Kernel, cfgID, iteration int) (Sample, error) {
	return p.RunAttempt(k, cfgID, iteration, 0)
}

// RunAttempt is Run with an explicit sensor-read retry ordinal: the
// SMU fault event is keyed by attempt, so re-reading after
// power.ErrSensorDropout is a fresh fault decision that may succeed.
// Kernel-hang and counter faults key on the iteration alone — a
// retried read does not re-roll the kernel's own fate.
//
// When the SMU fails (dropout or implausible reading) the kernel
// still executed: the sample is returned with its timing intact and
// whatever power the sensor claimed, alongside the sentinel error,
// and is NOT recorded in the history (kept only with KeepHistory).
func (p *Profiler) RunAttempt(k kernels.Kernel, cfgID, iteration, attempt int) (Sample, error) {
	cfg, err := p.Space.ByID(cfgID)
	if err != nil {
		return Sample{}, fmt.Errorf("%w: %v", ErrUnknownConfig, err)
	}
	id := k.ID()
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(kernels.IterationSeed(id, cfgID, iteration))
	exec, err := p.Machine.RunNoisy(k.Workload, cfg, rng)
	if err != nil {
		return Sample{}, err
	}
	device := cfg.Device.String()
	mRuns.With(device).Inc()
	mRunSeconds.With(device).Observe(exec.TimeSec)
	// A nil injector never fires, so the fault keys are built only
	// when a plan is wired.
	var evKey, smuKey string
	if p.Faults != nil {
		evKey = fault.EventKey(id, cfgID)
		smuKey = evKey
		if attempt > 0 {
			smuKey = fmt.Sprintf("%s#r%d", evKey, attempt)
		}
	}
	for _, f := range p.Faults.At(fault.SiteKernel, evKey, iteration) {
		if f.Kind == fault.KernelHang && f.Magnitude > 1 {
			exec.TimeSec *= f.Magnitude
		}
	}
	smuFaults := p.Faults.At(fault.SiteSMU, smuKey, iteration)
	meas, measErr := p.SMU.MeasureFaulty(power.ConstantTrace(exec.CPUPowerW, exec.NBGPUPowerW), exec.TimeSec, rng, smuFaults)
	s := Sample{
		KernelID:  id,
		Benchmark: k.Benchmark,
		Input:     k.Input,
		Kernel:    k.Name,
		ConfigID:  cfgID,
		Config:    cfg,
		Iteration: iteration,
		TimeSec:   exec.TimeSec,
		CPUPowerW: meas.AvgCPUW,
		NBGPUW:    meas.AvgNBGPUW,
	}
	if measErr != nil {
		return s, measErr
	}
	ctr := counters.Derive(k.Workload, exec).Noisy(rng, p.CounterNoiseRel)
	for _, f := range p.Faults.At(fault.SiteCounter, evKey, iteration) {
		ctr = ctr.Corrupted(f, rng)
	}
	s.Counters = ctr
	if p.KeepHistory {
		p.mu.Lock()
		p.history = append(p.history, s)
		p.mu.Unlock()
	}
	return s, nil
}

// RunConfig is Run for an explicit configuration that must exist in the
// profiler's space.
func (p *Profiler) RunConfig(k kernels.Kernel, cfg apu.Config, iteration int) (Sample, error) {
	return p.RunConfigAttempt(k, cfg, iteration, 0)
}

// RunConfigAttempt is RunAttempt for an explicit configuration.
func (p *Profiler) RunConfigAttempt(k kernels.Kernel, cfg apu.Config, iteration, attempt int) (Sample, error) {
	id := p.Space.IDOf(cfg)
	if id < 0 {
		return Sample{}, fmt.Errorf("%w: %v", ErrUnknownConfig, cfg)
	}
	return p.RunAttempt(k, id, iteration, attempt)
}

// History returns a copy of all recorded samples in recording order:
// nothing unless KeepHistory was set.
func (p *Profiler) History() []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Sample(nil), p.history...)
}

// WriteJSON streams the history to w (one JSON document), the paper's
// "written to disk after the application completes". Samples are
// ordered by (kernel ID, config, iteration), not in recording order:
// parallel runs finish in no fixed order, and the same runs must write
// the same bytes.
func (p *Profiler) WriteJSON(w io.Writer) error {
	h := p.History()
	sort.SliceStable(h, func(i, j int) bool {
		if h[i].KernelID != h[j].KernelID {
			return h[i].KernelID < h[j].KernelID
		}
		if h[i].ConfigID != h[j].ConfigID {
			return h[i].ConfigID < h[j].ConfigID
		}
		return h[i].Iteration < h[j].Iteration
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(h)
}
