package rts

import (
	"reflect"
	"sync"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/metrics"
	"acsel/internal/profiler"
)

var (
	modelOnce sync.Once
	modelErr  error
	gModel    *core.Model
	gHeldOut  []kernels.Kernel
)

// trainedModel trains once on everything except LULESH; the held-out
// LULESH Small kernels play the role of a new application.
func trainedModel(t *testing.T) (*core.Model, []kernels.Kernel) {
	t.Helper()
	modelOnce.Do(func() {
		var training []kernels.Kernel
		for _, c := range kernels.Combos() {
			if c.Benchmark == "LULESH" {
				if c.Input == "Small" {
					gHeldOut = c.Kernels
				}
				continue
			}
			training = append(training, c.Kernels...)
		}
		p := profiler.New()
		opts := core.DefaultTrainOptions()
		opts.Iterations = 2
		profs, err := core.Characterize(p, training, opts)
		if err != nil {
			modelErr = err
			return
		}
		gModel, modelErr = core.Train(p.Space, profs, opts)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return gModel, gHeldOut
}

// profilerRuns reads acsel_profiler_runs_total summed over devices:
// every instrumented kernel run in the process.
func profilerRuns(t *testing.T) float64 {
	t.Helper()
	fam, ok := metrics.Default.TakeSnapshot().Family("acsel_profiler_runs_total")
	if !ok {
		t.Fatal("no acsel_profiler_runs_total family")
	}
	total := 0.0
	for _, m := range fam.Metrics {
		total += *m.Value
	}
	return total
}

func TestNewValidation(t *testing.T) {
	m, _ := trainedModel(t)
	if _, err := New(nil, Options{CapW: 20}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(m, Options{CapW: 0}); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseSampleCPU.String() != "sample-cpu" || PhaseSampleGPU.String() != "sample-gpu" || PhasePinned.String() != "pinned" {
		t.Fatal("phase strings")
	}
	if Phase(7).String() == "" {
		t.Fatal("unknown phase renders empty")
	}
}

func TestAdaptationLifecycle(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	k := held[0]

	// Iteration 0: CPU sample configuration.
	s0, err := rt.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Phase != PhaseSampleCPU || s0.Config != apu.SampleConfigCPU() {
		t.Errorf("step 0: %+v", s0)
	}
	if _, _, ok := rt.SelectionFor(k.ID()); ok {
		t.Error("selection available before sampling completes")
	}

	// Iteration 1: GPU sample configuration; adaptation happens here.
	s1, err := rt.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Phase != PhaseSampleGPU || s1.Config != apu.SampleConfigGPU() {
		t.Errorf("step 1: %+v", s1)
	}
	cfg, cluster, ok := rt.SelectionFor(k.ID())
	if !ok {
		t.Fatal("no selection after two samples")
	}
	if cluster < 0 || cluster >= m.K {
		t.Errorf("cluster = %d", cluster)
	}

	// Iteration 2+: pinned.
	s2, err := rt.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Phase != PhasePinned || s2.Config != cfg {
		t.Errorf("step 2: %+v (pinned %v)", s2, cfg)
	}
	if s2.Cluster != cluster {
		t.Error("cluster not carried into pinned steps")
	}
	// §IV-C: after the second iteration the configuration is fixed.
	s3, err := rt.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Config != s2.Config {
		t.Error("pinned configuration changed without a cap change")
	}
}

func TestCapChangeReselectsFromCachedFrontier(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 40})
	if err != nil {
		t.Fatal(err)
	}
	k := held[0] // CalcFBHourglass: GPU-friendly at high caps
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	loose, _, _ := rt.SelectionFor(k.ID())
	runsBefore := profilerRuns(t)

	if err := rt.SetCap(13); err != nil {
		t.Fatal(err)
	}
	s, err := rt.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	tight := s.Config
	if tight == loose {
		t.Errorf("cap 40→13 did not change the configuration (%v)", tight)
	}
	// Re-selection must not have triggered new sample-config profiling:
	// exactly one new profiler run (the pinned run itself).
	if runs := profilerRuns(t) - runsBefore; runs != 1 {
		t.Errorf("cap change re-profiled: %v profiler runs for one pinned step", runs)
	}
	if err := rt.SetCap(0); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestFLStepsDownOnViolation(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 21, FL: true})
	if err != nil {
		t.Fatal(err)
	}
	// Run all kernels a few iterations; any pinned violation must cause
	// the next pinned iteration to use a lower frequency.
	for _, k := range held {
		var prev *Step
		for i := 0; i < 5; i++ {
			s, err := rt.RunKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && prev.Phase == PhasePinned && !prev.UnderCap && s.Phase == PhasePinned {
				lowered := s.Config.CPUFreqGHz < prev.Config.CPUFreqGHz ||
					s.Config.GPUFreqGHz < prev.Config.GPUFreqGHz
				atFloor := prev.Config.CPUFreqGHz == apu.MinCPUFreq() &&
					(prev.Config.Device == apu.CPUDevice || prev.Config.GPUFreqGHz == apu.MinGPUFreq())
				if !lowered && !atFloor {
					t.Errorf("%s: violation at %v not followed by a step down (next %v)",
						k.Name, prev.Config, s.Config)
				}
			}
			cp := s
			prev = &cp
		}
	}
}

func TestVarAwareOptionIsMoreConservative(t *testing.T) {
	m, held := trainedModel(t)
	base, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	va, err := New(m, Options{CapW: 24, VarAwareZ: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := held[1]
	for i := 0; i < 3; i++ {
		if _, err := base.RunKernel(k); err != nil {
			t.Fatal(err)
		}
		if _, err := va.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	bCfg, _, _ := base.SelectionFor(k.ID())
	vCfg, _, _ := va.SelectionFor(k.ID())
	bPred := predictedPower(t, m, base, k, bCfg)
	vPred := predictedPower(t, m, va, k, vCfg)
	if vPred > bPred+1e-9 {
		t.Errorf("variance-aware pick predicts more power (%v) than base (%v)", vPred, bPred)
	}
}

func predictedPower(t *testing.T, m *core.Model, rt *Runtime, k kernels.Kernel, cfg apu.Config) float64 {
	t.Helper()
	preds, _, err := m.PredictAll(sampleRunsOf(t, rt, k))
	if err != nil {
		t.Fatal(err)
	}
	id := m.Space.IDOf(cfg)
	return preds[id].PowerW
}

func TestSummarize(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range held[:4] {
		for i := 0; i < 4; i++ {
			if _, err := rt.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	sum := rt.Summarize()
	if sum.Steps != 16 || sum.SampledSteps != 8 || sum.PinnedSteps != 8 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.TimeSec <= 0 || sum.EnergyJ <= 0 {
		t.Errorf("summary totals: %+v", sum)
	}
	if len(rt.Steps()) != 16 {
		t.Error("step history incomplete")
	}
}

// TestLastSteps checks that LastSteps returns the tail of Steps, clamps
// n to [0, NumSteps], and hands out a copy the caller may overwrite.
func TestLastSteps(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.LastSteps(3); len(got) != 0 {
		t.Fatalf("before any step: %d steps", len(got))
	}
	for _, k := range held[:3] {
		for i := 0; i < 2; i++ {
			if _, err := rt.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := rt.Steps()
	for _, n := range []int{-1, 0, 1, 4, len(all), len(all) + 5} {
		want := all[len(all)-min(max(n, 0), len(all)):]
		if got := rt.LastSteps(n); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("LastSteps(%d) = %d steps, want the last %d", n, len(got), len(want))
		}
	}
	tail := rt.LastSteps(2)
	tail[0].PowerW, tail[1].PowerW = -1, -1
	if again := rt.LastSteps(2); !reflect.DeepEqual(again, all[len(all)-2:]) {
		t.Error("writing to LastSteps' result changed the runtime's history")
	}
}

func TestACPIStateFollowsPin(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 18})
	if err != nil {
		t.Fatal(err)
	}
	k := held[2]
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	cfg, _, _ := rt.SelectionFor(k.ID())
	f0, err := rt.PStates().CUFrequency(0)
	if err != nil {
		t.Fatal(err)
	}
	if f0 != cfg.CPUFreqGHz {
		t.Errorf("ACPI CU0 at %v, pinned config %v", f0, cfg)
	}
}

// TestPinnedStepAllocs pins what BenchmarkRunKernelPinned measures: a
// pinned step of an unarmed runtime allocates at most 3 times, so the
// per-step cost of fleet rounds cannot grow unnoticed.
func TestPinnedStepAllocs(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	k := held[0]
	for i := 0; i < 2; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a pinned step allocates %v times, want at most 3", allocs)
	}
}

func BenchmarkRunKernelPinned(b *testing.B) {
	var training []kernels.Kernel
	var held []kernels.Kernel
	for _, c := range kernels.Combos() {
		if c.Benchmark == "LULESH" {
			if c.Input == "Small" {
				held = c.Kernels
			}
			continue
		}
		training = append(training, c.Kernels...)
	}
	p := profiler.New()
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := core.Characterize(p, training, opts)
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.Train(p.Space, profs, opts)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := New(model, Options{CapW: 24})
	if err != nil {
		b.Fatal(err)
	}
	k := held[0]
	// Prime through the sampling phases.
	for i := 0; i < 2; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCallsiteContextsAdaptIndependently(t *testing.T) {
	// §VI extension: the same kernel invoked from two call sites gets
	// independent sampling and pinning.
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	k := held[0]
	// Site A goes through its two sampling phases.
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernelAt(k, "phase-A"); err != nil {
			t.Fatal(err)
		}
	}
	// Site B starts fresh: its first run must be the CPU sample phase.
	s, err := rt.RunKernelAt(k, "phase-B")
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase != PhaseSampleCPU {
		t.Errorf("new call site started in phase %v, want sample-cpu", s.Phase)
	}
	if _, _, ok := rt.SelectionFor(k.ID() + "@phase-A"); !ok {
		t.Error("site A selection missing")
	}
	if _, _, ok := rt.SelectionFor(k.ID() + "@phase-B"); ok {
		t.Error("site B should not be pinned yet")
	}
	// Default (no callsite) is yet another context.
	s, err = rt.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase != PhaseSampleCPU {
		t.Errorf("default context started in phase %v", s.Phase)
	}
}

func TestPredictionsForAndAdaptedKernels(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.SelectorFor("nope"); ok {
		t.Error("selector for unknown kernel")
	}
	if len(rt.AdaptedKernels()) != 0 {
		t.Error("adapted kernels before any run")
	}
	k := held[0]
	if _, err := rt.RunKernel(k); err != nil {
		t.Fatal(err)
	}
	// After one sample iteration: known but not adapted.
	if snap := rt.Snapshot(); len(snap.Kernels) != 1 || snap.Kernels[0].Adapted {
		t.Errorf("snapshot after one sample: %+v", snap.Kernels)
	}
	if _, ok := rt.SelectorFor(k.ID()); ok {
		t.Error("selector before adaptation completes")
	}
	if _, err := rt.RunKernel(k); err != nil {
		t.Fatal(err)
	}
	// The predictions, rebuilt from the snapshotted sample runs as
	// Restore rebuilds them.
	preds, cluster, err := m.PredictAll(sampleRunsOf(t, rt, k))
	if err != nil || len(preds) != m.Space.Len() {
		t.Fatalf("predictions after adaptation: err=%v len=%d", err, len(preds))
	}
	// The selector compiles the same predictions: it picks what
	// SelectAmong picks over them, and what the runtime pinned at this
	// cap.
	sel, ok := rt.SelectorFor(k.ID())
	if !ok {
		t.Fatal("no selector after adaptation")
	}
	got, err := sel.Select(rt.Cap(), rt.VarAwareZ())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SelectAmong(preds, cluster, rt.Cap(), rt.VarAwareZ())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("selector picks %+v, SelectAmong %+v", got, want)
	}
	if pinned, _, _ := rt.SelectionFor(k.ID()); got.Config != pinned {
		t.Errorf("selector picks %v, runtime pinned %v", got.Config, pinned)
	}
	adapted := rt.AdaptedKernels()
	if len(adapted) != 1 || adapted[0] != k.ID() {
		t.Errorf("adapted = %v", adapted)
	}
}
