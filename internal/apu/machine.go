package apu

import (
	"fmt"
	"math"
	"math/rand"
)

// Machine is the analytic performance/power model of the Trinity APU.
// All coefficients are exported so experiments can perturb the machine
// (sensitivity ablations) without editing the package. Use
// DefaultMachine for the calibrated instance; the calibration targets
// the magnitudes reported in the paper (package-level power between
// roughly 12 and 55 W across kernels and configurations, GPU peak
// throughput an order of magnitude above one CPU core, and visible
// kernel-launch sensitivity to CPU frequency on GPU configurations).
type Machine struct {
	// --- CPU timing ---

	// CoreFlopsPerCycle is scalar flop issue per core per cycle.
	CoreFlopsPerCycle float64
	// VecWidth is the SIMD width; a kernel's VecFrac interpolates
	// between scalar and full-width issue.
	VecWidth float64
	// FPUShareBase and FPUShareVec control the throughput loss when the
	// two cores of a module contend for the shared FPU: the second core
	// of a module contributes (1 − base − vec·VecFrac) of a core.
	FPUShareBase float64
	FPUShareVec  float64
	// PeakBWGBs is the peak DRAM bandwidth in GB/s (shared controller).
	PeakBWGBs float64
	// CoreBWGBs is the bandwidth one core can demand at maximum
	// frequency, in GB/s.
	CoreBWGBs float64
	// BWFreqFloor is the fraction of per-core bandwidth still
	// achievable at the minimum CPU frequency (request-rate limit).
	BWFreqFloor float64
	// OverlapResidual is the fraction of the smaller of compute/memory
	// time that is not hidden by overlap.
	OverlapResidual float64
	// BarrierCyclesPerThread models OpenMP fork/join and barrier cost.
	BarrierCyclesPerThread float64

	// --- GPU timing ---

	// GPUFlopsPerCycle is peak flop issue per GPU cycle (384 FMAC
	// cores × 2 flops).
	GPUFlopsPerCycle float64
	// GPUBWGBs is the GPU's achievable DRAM bandwidth at maximum GPU
	// frequency, in GB/s.
	GPUBWGBs float64
	// GPUBWFreqFloor is the fraction of GPU bandwidth available at the
	// minimum GPU frequency.
	GPUBWFreqFloor float64
	// GPUOverlapResidual mirrors OverlapResidual for the GPU.
	GPUOverlapResidual float64

	// --- CPU power ---

	// CPUStaticWPerV2 scales leakage for the CPU plane: P = c·V².
	CPUStaticWPerV2 float64
	// CPUDynWPerV2GHz scales per-core dynamic power: P = c·a·V²·f.
	CPUDynWPerV2GHz float64
	// ModuleOverheadW is front-end/L2 power per active module.
	ModuleOverheadW float64
	// ActivityFloor is the activity factor of a fully stalled core;
	// fully busy cores have activity 1.
	ActivityFloor float64
	// HostActivity is the activity of the host core while it drives the
	// OpenCL runtime during GPU kernels.
	HostActivity float64

	// --- NB + GPU power (the paper's second measurement domain) ---

	// NBBaseW is northbridge base power.
	NBBaseW float64
	// DRAMWPerGBs converts achieved bandwidth into DRAM/controller power.
	DRAMWPerGBs float64
	// GPUStaticWPerV2 scales GPU leakage: P = c·V².
	GPUStaticWPerV2 float64
	// GPUActiveW is drawn whenever the GPU executes a kernel (clock
	// trees and SIMD front-ends ungated), independent of frequency. It
	// sets the GPU's power floor: even at the minimum GPU P-state the
	// paper's Table I shows ~24 W package power.
	GPUActiveW float64
	// GPUDynWPerV2GHz scales GPU dynamic power: P = c·u·V²·f.
	GPUDynWPerV2GHz float64

	// --- Measurement noise (applied by RunNoisy) ---

	// TimeNoise and PowerNoise are relative standard deviations of
	// multiplicative run-to-run jitter.
	TimeNoise  float64
	PowerNoise float64
}

// DefaultMachine returns the calibrated Trinity model.
func DefaultMachine() *Machine {
	return &Machine{
		CoreFlopsPerCycle:      2.0,
		VecWidth:               4.0,
		FPUShareBase:           0.15,
		FPUShareVec:            0.45,
		PeakBWGBs:              20.0,
		CoreBWGBs:              9.0,
		BWFreqFloor:            0.55,
		OverlapResidual:        0.25,
		BarrierCyclesPerThread: 20000,

		GPUFlopsPerCycle:   768.0,
		GPUBWGBs:           26.0,
		GPUBWFreqFloor:     0.6,
		GPUOverlapResidual: 0.25,

		CPUStaticWPerV2: 4.0,
		CPUDynWPerV2GHz: 1.5,
		ModuleOverheadW: 0.5,
		ActivityFloor:   0.45,
		HostActivity:    0.25,

		NBBaseW:         2.5,
		DRAMWPerGBs:     0.15,
		GPUStaticWPerV2: 3.5,
		GPUActiveW:      4.5,
		GPUDynWPerV2GHz: 42.0,

		TimeNoise:  0.015,
		PowerNoise: 0.02,
	}
}

// Execution is the outcome of running a workload once at a
// configuration: virtual wall time, average power in the two measured
// domains, and activity details consumed by the counter model.
type Execution struct {
	Config  Config
	TimeSec float64

	// CPUPowerW is the CPU-cores power domain (paper: "the CPU cores").
	CPUPowerW float64
	// NBGPUPowerW is the northbridge + GPU power domain.
	NBGPUPowerW float64

	// Decomposition of TimeSec.
	CompTimeSec   float64
	MemTimeSec    float64
	LaunchTimeSec float64
	SyncTimeSec   float64

	// StallFrac is the fraction of core cycles stalled on memory.
	StallFrac float64
	// AchievedBWGBs is the DRAM bandwidth actually consumed.
	AchievedBWGBs float64
	// GPUUtil is the GPU's busy fraction (0 for CPU configurations).
	GPUUtil float64
}

// TotalPowerW is the package power: the sum of both measured domains.
func (e Execution) TotalPowerW() float64 { return e.CPUPowerW + e.NBGPUPowerW }

// Perf is throughput: invocations per second.
func (e Execution) Perf() float64 { return 1 / e.TimeSec }

// EnergyJ is the package energy of the invocation.
func (e Execution) EnergyJ() float64 { return e.TotalPowerW() * e.TimeSec }

// Run executes workload w at configuration cfg under the analytic
// model. It is fully deterministic; RunNoisy adds measurement jitter.
func (m *Machine) Run(w Workload, cfg Config) (Execution, error) {
	if err := w.Validate(); err != nil {
		return Execution{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Execution{}, err
	}
	switch cfg.Device {
	case CPUDevice:
		return m.runCPU(w, cfg)
	default:
		return m.runGPU(w, cfg)
	}
}

func (m *Machine) runCPU(w Workload, cfg Config) (Execution, error) {
	f := cfg.CPUFreqGHz
	n := cfg.Threads

	// Compute throughput: one core's flop rate, SIMD boost, module
	// FPU sharing, and Amdahl's law over effective execution units.
	vecBoost := 1 + w.VecFrac*(m.VecWidth-1)
	ratePerCore := f * 1e9 * m.CoreFlopsPerCycle * vecBoost
	shareEff := 1 - m.FPUShareBase - m.FPUShareVec*w.VecFrac
	if shareEff < 0.1 {
		shareEff = 0.1
	}
	// Threads spread across modules first: 1→1 unit, 2→2 units,
	// 3 and 4 add second cores of each module at shareEff.
	effUnits := []float64{0, 1, 2, 2 + shareEff, 2 + 2*shareEff}[n]
	speedup := 1 / ((1 - w.ParFrac) + w.ParFrac/effUnits)
	compTime := w.FLOPs / (ratePerCore * speedup)

	// Memory throughput: per-core demand limited by frequency, summed
	// across the threads actually streaming (parallel fraction), capped
	// at the shared-controller peak.
	freqScale := m.BWFreqFloor + (1-m.BWFreqFloor)*(f/MaxCPUFreq())
	demand := m.CoreBWGBs * freqScale * (float64(n)*w.ParFrac + (1 - w.ParFrac))
	bw := math.Min(m.PeakBWGBs, demand)
	memTime := w.Bytes / (bw * 1e9)

	syncTime := float64(n) * m.BarrierCyclesPerThread / (f * 1e9)

	run := math.Max(compTime, memTime) + m.OverlapResidual*math.Min(compTime, memTime)
	total := run + syncTime

	stallFrac := memTime / (compTime + memTime)
	achievedBW := w.Bytes / run / 1e9

	v, err := CPUVoltage(f)
	if err != nil {
		return Execution{}, err
	}
	activity := m.ActivityFloor + (1-m.ActivityFloor)*(1-stallFrac)
	modules := 1
	if n > 2 {
		modules = 2
	}
	cpuPower := m.CPUStaticWPerV2*v*v +
		m.CPUDynWPerV2GHz*activity*v*v*f*float64(n) +
		m.ModuleOverheadW*float64(modules)

	gv, err := GPUVoltage(cfg.GPUFreqGHz)
	if err != nil {
		return Execution{}, err
	}
	nbPower := m.NBBaseW + m.DRAMWPerGBs*achievedBW + m.GPUStaticWPerV2*gv*gv

	return Execution{
		Config:        cfg,
		TimeSec:       total,
		CPUPowerW:     cpuPower,
		NBGPUPowerW:   nbPower,
		CompTimeSec:   compTime,
		MemTimeSec:    memTime,
		SyncTimeSec:   syncTime,
		StallFrac:     stallFrac,
		AchievedBWGBs: achievedBW,
	}, nil
}

func (m *Machine) runGPU(w Workload, cfg Config) (Execution, error) {
	fg := cfg.GPUFreqGHz
	fc := cfg.CPUFreqGHz

	compTime := w.FLOPs / (fg * 1e9 * m.GPUFlopsPerCycle * w.GPUAffinity)

	bwScale := m.GPUBWFreqFloor + (1-m.GPUBWFreqFloor)*(fg/MaxGPUFreq())
	bw := m.GPUBWGBs * bwScale
	memTime := w.Bytes * w.GPUBytesFactor / (bw * 1e9)

	launchTime := w.LaunchCycles / (fc * 1e9)

	run := math.Max(compTime, memTime) + m.GPUOverlapResidual*math.Min(compTime, memTime)
	total := run + launchTime

	gpuUtil := run / total * (compTime / (compTime + memTime))
	achievedBW := w.Bytes * w.GPUBytesFactor / total / 1e9

	v, err := CPUVoltage(fc)
	if err != nil {
		return Execution{}, err
	}
	// Host core drives the OpenCL runtime (one thread, low activity).
	cpuPower := m.CPUStaticWPerV2*v*v +
		m.CPUDynWPerV2GHz*m.HostActivity*v*v*fc +
		m.ModuleOverheadW

	gv, err := GPUVoltage(fg)
	if err != nil {
		return Execution{}, err
	}
	nbPower := m.NBBaseW + m.DRAMWPerGBs*achievedBW +
		m.GPUStaticWPerV2*gv*gv + m.GPUActiveW +
		m.GPUDynWPerV2GHz*gpuUtil*gv*gv*fg

	return Execution{
		Config:        cfg,
		TimeSec:       total,
		CPUPowerW:     cpuPower,
		NBGPUPowerW:   nbPower,
		CompTimeSec:   compTime,
		MemTimeSec:    memTime,
		LaunchTimeSec: launchTime,
		StallFrac:     memTime / (compTime + memTime),
		AchievedBWGBs: achievedBW,
		GPUUtil:       gpuUtil,
	}, nil
}

// RunNoisy executes the workload and applies multiplicative lognormal
// measurement jitter drawn from rng, modeling run-to-run variation and
// the error of the on-chip power estimator. Determinism is preserved by
// passing a generator seeded from the run's identity:
// kernels.IterationSeed gives one seed per kernel, configuration and
// iteration. RunNoisy draws at most three NormFloat64s from it, in
// a fixed order.
func (m *Machine) RunNoisy(w Workload, cfg Config, rng *rand.Rand) (Execution, error) {
	e, err := m.Run(w, cfg)
	if err != nil {
		return Execution{}, err
	}
	e.TimeSec *= lognorm(rng, m.TimeNoise)
	e.CPUPowerW *= lognorm(rng, m.PowerNoise)
	e.NBGPUPowerW *= lognorm(rng, m.PowerNoise)
	return e, nil
}

func lognorm(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
}

// ThermalHeadroom reports whether a CPU boost state may engage given a
// package power reading: the paper's opportunistic-overclocking
// extension gates boost on headroom below the thermal design power.
func (m *Machine) ThermalHeadroom(packagePowerW, tdpW float64) bool {
	return packagePowerW < 0.85*tdpW
}

// String summarizes the machine for reports.
func (m *Machine) String() string {
	return fmt.Sprintf("Trinity model: %d CPU P-states (%.2g–%.2g GHz), %d GPU P-states (%.3g–%.3g GHz), peak BW %.3g GB/s",
		len(CPUPStates), MinCPUFreq(), MaxCPUFreq(), len(GPUPStates), MinGPUFreq(), MaxGPUFreq(), m.PeakBWGBs)
}
