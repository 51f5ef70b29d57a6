// Package kernels provides the benchmark suite of the paper's
// evaluation (§IV-B): 36 computational kernels drawn from the exascale
// proxy applications LULESH (20 kernels), CoMD (7), and SMC (8), plus
// Rodinia LU (1), across multiple input sizes for 65 benchmark/input
// combinations in total.
//
// The real kernels are OpenMP/OpenCL codes; here each kernel is a
// synthetic apu.Workload whose parameters are drawn from a
// per-kernel archetype (compute-bound SIMD-friendly, memory-streaming,
// branchy/irregular, launch-latency-bound, poorly-parallelized) with
// deterministic per-kernel jitter. The archetype assignment follows the
// qualitative character of the real kernels (e.g. LULESH's hourglass
// force kernels are wide data-parallel loops; CoMD's neighbor-list
// build is irregular; SMC's chemistry is branchy with heavy compute;
// LU decomposition is strongly GPU-friendly). See DESIGN.md for why
// this substitution preserves the evaluation's stress profile.
package kernels

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"acsel/internal/apu"
	"acsel/internal/seeded"
)

// Archetype names a qualitative kernel behaviour class.
type Archetype int

const (
	// ComputeSIMD is a wide data-parallel floating-point loop: high
	// vectorization, high parallel fraction, strong GPU affinity.
	ComputeSIMD Archetype = iota
	// MemoryStream is bandwidth-bound streaming: performance set by the
	// memory system, mild frequency sensitivity, decent GPU affinity.
	MemoryStream
	// Branchy is irregular control flow: poor vectorization, weak GPU
	// affinity, moderate parallelism.
	Branchy
	// LaunchBound is a small kernel dominated by invocation overhead:
	// the GPU path suffers driver launch latency.
	LaunchBound
	// LowParallel has a significant serial fraction (reductions,
	// boundary work): thread scaling flattens early.
	LowParallel
	// Balanced mixes compute and memory without an extreme.
	Balanced
)

// String names the archetype.
func (a Archetype) String() string {
	switch a {
	case ComputeSIMD:
		return "compute-simd"
	case MemoryStream:
		return "memory-stream"
	case Branchy:
		return "branchy"
	case LaunchBound:
		return "launch-bound"
	case LowParallel:
		return "low-parallel"
	case Balanced:
		return "balanced"
	}
	return fmt.Sprintf("Archetype(%d)", int(a))
}

// rng01 helpers: parameter ranges per archetype. Each entry is
// {min, max} and a kernel's value is drawn uniformly via its hash-seeded
// generator, making the catalog fully deterministic.
type paramRanges struct {
	parFrac    [2]float64
	vecFrac    [2]float64
	branchFrac [2]float64
	gpuAff     [2]float64
	intensity  [2]float64 // flops per DRAM byte
	launchCyc  [2]float64
	l1Rate     [2]float64
	l2Rate     [2]float64
	tlbRate    [2]float64
	instrPF    [2]float64
	gpuBytes   [2]float64
}

var archetypeParams = map[Archetype]paramRanges{
	ComputeSIMD: {
		parFrac:    [2]float64{0.96, 0.995},
		vecFrac:    [2]float64{0.55, 0.8},
		branchFrac: [2]float64{0.02, 0.06},
		gpuAff:     [2]float64{0.3, 0.68},
		intensity:  [2]float64{6, 20},
		launchCyc:  [2]float64{1.5e6, 4e6},
		l1Rate:     [2]float64{0.005, 0.02},
		l2Rate:     [2]float64{0.1, 0.3},
		tlbRate:    [2]float64{0.0002, 0.001},
		instrPF:    [2]float64{1.2, 1.8},
		gpuBytes:   [2]float64{0.9, 1.2},
	},
	MemoryStream: {
		parFrac:    [2]float64{0.9, 0.98},
		vecFrac:    [2]float64{0.3, 0.6},
		branchFrac: [2]float64{0.03, 0.08},
		gpuAff:     [2]float64{0.15, 0.35},
		intensity:  [2]float64{0.25, 1.2},
		launchCyc:  [2]float64{1.5e6, 4e6},
		l1Rate:     [2]float64{0.04, 0.10},
		l2Rate:     [2]float64{0.4, 0.7},
		tlbRate:    [2]float64{0.001, 0.004},
		instrPF:    [2]float64{1.8, 2.6},
		gpuBytes:   [2]float64{0.9, 1.3},
	},
	Branchy: {
		parFrac:    [2]float64{0.85, 0.95},
		vecFrac:    [2]float64{0.02, 0.15},
		branchFrac: [2]float64{0.18, 0.3},
		gpuAff:     [2]float64{0.015, 0.06},
		intensity:  [2]float64{1.5, 5},
		launchCyc:  [2]float64{2e6, 6e6},
		l1Rate:     [2]float64{0.02, 0.06},
		l2Rate:     [2]float64{0.3, 0.6},
		tlbRate:    [2]float64{0.002, 0.008},
		instrPF:    [2]float64{2.2, 3.2},
		gpuBytes:   [2]float64{1.1, 1.6},
	},
	LaunchBound: {
		parFrac:    [2]float64{0.8, 0.95},
		vecFrac:    [2]float64{0.2, 0.5},
		branchFrac: [2]float64{0.05, 0.12},
		gpuAff:     [2]float64{0.1, 0.3},
		intensity:  [2]float64{2, 8},
		launchCyc:  [2]float64{1.5e7, 4e7},
		l1Rate:     [2]float64{0.01, 0.04},
		l2Rate:     [2]float64{0.2, 0.5},
		tlbRate:    [2]float64{0.0005, 0.002},
		instrPF:    [2]float64{1.5, 2.2},
		gpuBytes:   [2]float64{1.0, 1.4},
	},
	LowParallel: {
		parFrac:    [2]float64{0.35, 0.7},
		vecFrac:    [2]float64{0.1, 0.4},
		branchFrac: [2]float64{0.08, 0.18},
		gpuAff:     [2]float64{0.02, 0.1},
		intensity:  [2]float64{1, 6},
		launchCyc:  [2]float64{2e6, 8e6},
		l1Rate:     [2]float64{0.015, 0.05},
		l2Rate:     [2]float64{0.25, 0.55},
		tlbRate:    [2]float64{0.001, 0.005},
		instrPF:    [2]float64{1.8, 2.8},
		gpuBytes:   [2]float64{1.0, 1.5},
	},
	Balanced: {
		parFrac:    [2]float64{0.92, 0.98},
		vecFrac:    [2]float64{0.35, 0.6},
		branchFrac: [2]float64{0.05, 0.12},
		gpuAff:     [2]float64{0.12, 0.3},
		intensity:  [2]float64{2, 7},
		launchCyc:  [2]float64{1.5e6, 5e6},
		l1Rate:     [2]float64{0.015, 0.05},
		l2Rate:     [2]float64{0.25, 0.5},
		tlbRate:    [2]float64{0.001, 0.003},
		instrPF:    [2]float64{1.5, 2.2},
		gpuBytes:   [2]float64{0.95, 1.3},
	},
}

// Spec declares one kernel of a benchmark: its archetype, its share of
// benchmark runtime (the weighting the paper uses when aggregating
// per-benchmark results), and a work-scale multiplier.
type Spec struct {
	Name      string
	Archetype Archetype
	TimeShare float64
	WorkScale float64
}

// Benchmark groups kernels and the input sizes the suite runs.
type Benchmark struct {
	Name    string
	Inputs  []string
	Kernels []Spec
}

// inputScale maps an input-size label to the work multiplier applied to
// FLOPs and Bytes. Launch overhead does not scale with input, which is
// what makes small inputs launch-sensitive (the paper's LU Small
// discussion).
var inputScale = map[string]float64{
	"Small":   1,
	"Medium":  4,
	"Large":   16,
	"Default": 6,
}

// Suite returns the full benchmark suite: 36 kernels, 65
// benchmark/input combinations (LULESH 20×2 + CoMD 7×2 + SMC 8×1 +
// LU 1×3).
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:   "LULESH",
			Inputs: []string{"Small", "Large"},
			Kernels: []Spec{
				{"CalcFBHourglassForceForElems", ComputeSIMD, 0.16, 3.0},
				{"CalcHourglassControlForElems", ComputeSIMD, 0.12, 2.5},
				{"IntegrateStressForElems", ComputeSIMD, 0.11, 2.2},
				{"CalcKinematicsForElems", Balanced, 0.08, 1.8},
				{"CalcQForElems", MemoryStream, 0.06, 1.5},
				{"CalcMonotonicQGradientsForElems", MemoryStream, 0.06, 1.4},
				{"CalcMonotonicQRegionForElems", Branchy, 0.05, 1.2},
				{"EvalEOSForElems", Balanced, 0.06, 1.4},
				{"CalcEnergyForElems", ComputeSIMD, 0.05, 1.2},
				{"CalcPressureForElems", Balanced, 0.04, 1.0},
				{"CalcSoundSpeedForElems", LaunchBound, 0.02, 0.3},
				{"CalcLagrangeElements", MemoryStream, 0.03, 0.9},
				{"CalcForceForNodes", MemoryStream, 0.03, 0.9},
				{"CalcAccelerationForNodes", LaunchBound, 0.02, 0.25},
				{"ApplyAccelerationBCs", LaunchBound, 0.01, 0.15},
				{"CalcVelocityForNodes", MemoryStream, 0.03, 0.8},
				{"CalcPositionForNodes", MemoryStream, 0.03, 0.8},
				{"CalcCourantConstraintForElems", LowParallel, 0.02, 0.7},
				{"CalcHydroConstraintForElems", LowParallel, 0.01, 0.5},
				{"UpdateVolumesForElems", LaunchBound, 0.01, 0.2},
			},
		},
		{
			Name:   "CoMD",
			Inputs: []string{"Small", "Large"},
			Kernels: []Spec{
				{"ComputeForceLJ", ComputeSIMD, 0.35, 3.5},
				{"ComputeForceEAM", ComputeSIMD, 0.25, 3.0},
				{"BuildNeighborList", Branchy, 0.12, 1.5},
				{"RedistributeAtoms", Branchy, 0.08, 1.0},
				{"AdvanceVelocity", MemoryStream, 0.08, 1.0},
				{"AdvancePosition", MemoryStream, 0.08, 1.0},
				{"UpdateLinkCells", LowParallel, 0.04, 0.6},
			},
		},
		{
			Name:   "SMC",
			Inputs: []string{"Default"},
			Kernels: []Spec{
				{"Hypterm", ComputeSIMD, 0.22, 3.0},
				{"Diffterm", Balanced, 0.2, 2.6},
				{"ChemtermRates", Branchy, 0.18, 2.2},
				{"Ctoprim", MemoryStream, 0.12, 1.6},
				{"Courno", LowParallel, 0.06, 0.8},
				{"FillBoundary", LaunchBound, 0.05, 0.3},
				{"TraceStates", Balanced, 0.09, 1.2},
				{"UpdateRK3", MemoryStream, 0.08, 1.1},
			},
		},
		{
			Name:   "LU",
			Inputs: []string{"Small", "Medium", "Large"},
			Kernels: []Spec{
				{"lud", ComputeSIMD, 1.0, 4.0},
			},
		},
	}
}

// Kernel is one kernel instantiated for a benchmark input: the workload
// the machine model executes, plus identification and its runtime share
// within the benchmark.
type Kernel struct {
	Benchmark string
	Input     string
	Name      string
	Archetype Archetype
	TimeShare float64
	Workload  apu.Workload
}

// ID returns a unique "Benchmark/Input/Kernel" string.
func (k Kernel) ID() string { return k.Benchmark + "/" + k.Input + "/" + k.Name }

// Combo is one benchmark/input combination — the unit the paper's
// per-benchmark figures aggregate over.
type Combo struct {
	Benchmark string
	Input     string
	Kernels   []Kernel
}

// Label renders e.g. "LULESH Small" (or just the name for single-input
// benchmarks).
func (c Combo) Label() string {
	if c.Input == "Default" {
		return c.Benchmark
	}
	return c.Benchmark + " " + c.Input
}

// baseFLOPs sets the work magnitude of a WorkScale=1, Small-input
// kernel, chosen so kernel durations land in the paper's regime
// (milliseconds to hundreds of milliseconds).
const baseFLOPs = 6e8

// Instantiate builds the Kernel for one spec under an input label.
// Parameters are drawn deterministically from the kernel's identity, so
// every call returns the same workload. GPU affinity is damped for
// small inputs: undersized grids cannot fill 384 GPU cores.
func Instantiate(bench string, spec Spec, input string) Kernel {
	pr, ok := archetypeParams[spec.Archetype]
	if !ok {
		panic(fmt.Sprintf("kernels: unknown archetype %v", spec.Archetype))
	}
	rng := identityRNG(bench, spec.Name)
	draw := func(r [2]float64) float64 { return r[0] + rng.Float64()*(r[1]-r[0]) }

	scale, ok := inputScale[input]
	if !ok {
		panic(fmt.Sprintf("kernels: unknown input size %q", input))
	}
	flops := baseFLOPs * spec.WorkScale * scale
	intensity := draw(pr.intensity)

	gpuAff := draw(pr.gpuAff)
	if scale < 4 {
		gpuAff *= 0.75 // small grids underfill the GPU
	}

	w := apu.Workload{
		Name:           spec.Name,
		FLOPs:          flops,
		Bytes:          flops / intensity,
		ParFrac:        draw(pr.parFrac),
		VecFrac:        draw(pr.vecFrac),
		BranchFrac:     draw(pr.branchFrac),
		GPUAffinity:    gpuAff,
		GPUBytesFactor: draw(pr.gpuBytes),
		LaunchCycles:   draw(pr.launchCyc),
		L1MissRate:     draw(pr.l1Rate),
		L2MissRate:     draw(pr.l2Rate),
		TLBMissRate:    draw(pr.tlbRate),
		InstrPerFlop:   draw(pr.instrPF),
	}
	return Kernel{
		Benchmark: bench,
		Input:     input,
		Name:      spec.Name,
		Archetype: spec.Archetype,
		TimeShare: spec.TimeShare,
		Workload:  w,
	}
}

// Combos instantiates the full suite: all benchmark/input combinations
// with their kernels.
func Combos() []Combo {
	var out []Combo
	for _, b := range Suite() {
		for _, in := range b.Inputs {
			c := Combo{Benchmark: b.Name, Input: in}
			for _, spec := range b.Kernels {
				c.Kernels = append(c.Kernels, Instantiate(b.Name, spec, in))
			}
			out = append(out, c)
		}
	}
	return out
}

// KernelCount returns the number of distinct kernels in the suite
// (independent of inputs).
func KernelCount() int {
	n := 0
	for _, b := range Suite() {
		n += len(b.Kernels)
	}
	return n
}

// ComboKernelCount returns the total number of kernel/input pairs —
// the paper's "benchmark/input combination count" of 65.
func ComboKernelCount() int {
	n := 0
	for _, b := range Suite() {
		n += len(b.Kernels) * len(b.Inputs)
	}
	return n
}

// identityRNG seeds a generator from a kernel's identity so parameter
// draws are stable across processes and runs.
func identityRNG(parts ...string) *rand.Rand {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p)) // hash.Hash.Write never returns an error
		_, _ = h.Write([]byte{0})
	}
	return seeded.New(int64(h.Sum64()))
}

// IterationSeed is the seed of one kernel iteration's noise stream at
// one configuration: the FNV-64a hash of "kernelID|configID|iteration".
// The profiler reseeds a pooled generator with it, which draws exactly
// what a fresh IterationRNG would.
func IterationSeed(kernelID string, configID, iteration int) int64 {
	b := make([]byte, 0, 64)
	b = append(b, kernelID...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(configID), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(iteration), 10)
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never returns an error
	return int64(h.Sum64())
}

// IterationRNG derives the deterministic noise stream for one kernel
// iteration at one configuration: a fresh seeded.New generator seeded
// with IterationSeed. Profiling and evaluation use these streams so the
// entire experiment is reproducible bit-for-bit.
func IterationRNG(kernelID string, configID, iteration int) *rand.Rand {
	return seeded.New(IterationSeed(kernelID, configID, iteration))
}
