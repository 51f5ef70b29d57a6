// Package acsel_test holds the paper-level benchmark harness: one
// testing.B benchmark per table and figure of the evaluation (§V), plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Quality metrics (cap compliance, oracle-relative performance) are
// attached to the benchmark results via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates both the timing and the
// headline numbers; the full row/series text comes from
// `go run ./cmd/acsel-bench`.
package acsel_test

import (
	"runtime"
	"sync"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/cluster"
	"acsel/internal/core"
	"acsel/internal/eval"
	"acsel/internal/hierarchy"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/rapl"
	"acsel/internal/rts"
	"acsel/internal/sched"
	"acsel/internal/thermal"
	"acsel/internal/tree"
)

// sharedEval caches one full cross-validated evaluation for the
// benchmarks that only post-process it.
var (
	evalOnce sync.Once
	evalErr  error
	gEval    *eval.Evaluation
	gSpace   *apu.Space
)

func sharedEval(b *testing.B) (*eval.Evaluation, *apu.Space) {
	b.Helper()
	evalOnce.Do(func() {
		h := eval.NewHarness()
		h.Opts.Iterations = 3
		gEval, evalErr = h.Run()
		gSpace = h.Profiler.Space
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return gEval, gSpace
}

func allSuiteKernels() []kernels.Kernel {
	var ks []kernels.Kernel
	for _, c := range kernels.Combos() {
		ks = append(ks, c.Kernels...)
	}
	return ks
}

// BenchmarkTable1Fig2_Frontier regenerates Table I / Figure 2: profile
// the CalcFBHourglass kernel at all 42 configurations and extract its
// power–performance Pareto frontier.
func BenchmarkTable1Fig2_Frontier(b *testing.B) {
	k := kernels.Instantiate("LULESH", kernels.Suite()[0].Kernels[0], "Large")
	opts := core.DefaultTrainOptions()
	opts.Iterations = 3
	b.ReportAllocs()
	var frontierLen int
	for i := 0; i < b.N; i++ {
		p := profiler.New()
		profs, err := core.Characterize(p, []kernels.Kernel{k}, opts)
		if err != nil {
			b.Fatal(err)
		}
		frontierLen = profs[0].Frontier.Len()
	}
	b.ReportMetric(float64(frontierLen), "frontier_pts")
}

// BenchmarkTable2_SampleConfigs measures the online sampling cost: the
// two sample-configuration iterations a new kernel pays (Table II).
func BenchmarkTable2_SampleConfigs(b *testing.B) {
	p := profiler.New()
	k := kernels.Instantiate("CoMD", kernels.Suite()[1].Kernels[0], "Large")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunConfig(k, apu.SampleConfigCPU(), 0); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunConfig(k, apu.SampleConfigGPU(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_OfflinePipeline runs the complete offline stage of the
// Figure 1 flowchart: characterize the full 65-combination suite and
// train clusters, regressions, and the classifier.
func BenchmarkFig1_OfflinePipeline(b *testing.B) {
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	ks := allSuiteKernels()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := profiler.New()
		profs, err := core.Characterize(p, ks, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Train(p.Space, profs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_ClassificationTree regenerates Figure 3: train the
// cluster classification tree of one cross-validation fold and report
// its depth (classification is O(depth), §IV-C).
func BenchmarkFig3_ClassificationTree(b *testing.B) {
	ev, _ := sharedEval(b)
	m := ev.FoldModels["LULESH"]
	kp := ev.Profiles[0]
	feats := core.ClassifierFeatures(kp.CPUSample, kp.GPUSample)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tree.Classify(feats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Tree.Depth()), "tree_depth")
}

// BenchmarkTable3Fig4_MethodComparison regenerates Table III / Figure 4:
// the cross-validated comparison of all methods against the oracle.
// Headline metrics are attached to the result.
func BenchmarkTable3Fig4_MethodComparison(b *testing.B) {
	var ev *eval.Evaluation
	for i := 0; i < b.N; i++ {
		h := eval.NewHarness()
		h.Opts.Iterations = 3
		var err error
		ev, err = h.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	mfl := ev.Overall[sched.MethodModelFL]
	b.ReportMetric(mfl.PctUnder*100, "modelFL_pct_under")
	b.ReportMetric(mfl.UnderPerfRatio*100, "modelFL_under_perf")
	b.ReportMetric(ev.Overall[sched.MethodGPUFL].PctUnder*100, "gpuFL_pct_under")
	b.ReportMetric(ev.Overall[sched.MethodCPUFL].UnderPerfRatio*100, "cpuFL_under_perf")
}

// perComboBench reports one per-benchmark figure's aggregation cost and
// a representative metric.
func perComboBench(b *testing.B, metric string, get func(*eval.Evaluation) float64) {
	ev, _ := sharedEval(b)
	b.ResetTimer()
	var v float64
	for i := 0; i < b.N; i++ {
		v = get(ev)
	}
	b.ReportMetric(v, metric)
}

// BenchmarkFig5_UnderLimitPerf regenerates Figure 5 (under-limit
// performance by benchmark) and reports Model+FL's worst-case combo.
func BenchmarkFig5_UnderLimitPerf(b *testing.B) {
	perComboBench(b, "modelFL_worst_under_perf", func(ev *eval.Evaluation) float64 {
		worst := 1.0
		for _, c := range ev.PerCombo {
			a := c.PerMethod[sched.MethodModelFL]
			if a.HasUnder && a.UnderPerfRatio < worst {
				worst = a.UnderPerfRatio
			}
		}
		_ = ev.ReportFig5()
		return worst * 100
	})
}

// BenchmarkFig6_PercentUnderLimit regenerates Figure 6 and reports how
// many combos Model+FL leads or ties on cap compliance.
func BenchmarkFig6_PercentUnderLimit(b *testing.B) {
	perComboBench(b, "modelFL_leads_combos", func(ev *eval.Evaluation) float64 {
		leads := 0
		for _, c := range ev.PerCombo {
			best := true
			mfl := c.PerMethod[sched.MethodModelFL].PctUnder
			for _, m := range sched.Methods() {
				if c.PerMethod[m].PctUnder > mfl+1e-9 {
					best = false
				}
			}
			if best {
				leads++
			}
		}
		_ = ev.ReportFig6()
		return float64(leads)
	})
}

// BenchmarkFig7_LUSmallFrontier regenerates Figure 7: the LU Small
// frontier with its CPU→GPU performance cliff. The reported metric is
// the cliff ratio (first GPU frontier point vs last CPU point).
func BenchmarkFig7_LUSmallFrontier(b *testing.B) {
	ev, space := sharedEval(b)
	b.ResetTimer()
	var cliff float64
	for i := 0; i < b.N; i++ {
		kp, ok := ev.ProfileByID(eval.Fig7KernelID)
		if !ok {
			b.Fatal("missing LU Small profile")
		}
		pts := kp.Frontier.Points()
		var lastCPU, firstGPU float64
		for _, pt := range pts {
			if space.Configs[pt.ID].Device == apu.CPUDevice {
				lastCPU = pt.Perf
			} else if firstGPU == 0 {
				firstGPU = pt.Perf
			}
		}
		if lastCPU > 0 && firstGPU > 0 {
			cliff = firstGPU / lastCPU
		}
	}
	b.ReportMetric(cliff, "gpu_cpu_cliff_ratio")
}

// BenchmarkFig8_OverLimitPower regenerates Figure 8 and reports GPU+FL's
// worst over-limit power overshoot across combos.
func BenchmarkFig8_OverLimitPower(b *testing.B) {
	perComboBench(b, "gpuFL_worst_over_power", func(ev *eval.Evaluation) float64 {
		worst := 0.0
		for _, c := range ev.PerCombo {
			a := c.PerMethod[sched.MethodGPUFL]
			if a.HasOver && a.OverPowerRatio > worst {
				worst = a.OverPowerRatio
			}
		}
		_ = ev.ReportFig8()
		return worst * 100
	})
}

// BenchmarkFig9_OverLimitPerf regenerates Figure 9 and reports GPU+FL's
// maximum over-limit performance vs the oracle (the paper clips this at
// 9297% for LU Large).
func BenchmarkFig9_OverLimitPerf(b *testing.B) {
	perComboBench(b, "gpuFL_max_over_perf", func(ev *eval.Evaluation) float64 {
		worst := 0.0
		for _, c := range ev.PerCombo {
			a := c.PerMethod[sched.MethodGPUFL]
			if a.HasOver && a.OverPerfRatio > worst {
				worst = a.OverPerfRatio
			}
		}
		_ = ev.ReportFig9()
		return worst * 100
	})
}

// BenchmarkOnlineSelectionLatency validates the paper's §II claim that
// each configuration selection takes well under one millisecond.
func BenchmarkOnlineSelectionLatency(b *testing.B) {
	ev, _ := sharedEval(b)
	m := ev.FoldModels["LU"]
	kp, _ := ev.ProfileByID(eval.Fig7KernelID)
	sr := core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SelectUnderCap(sr, 22); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices from DESIGN.md §5) ---

// BenchmarkAblationClusterCount sweeps k (the paper settled on 5) and
// reports the silhouette-optimal k on the real dissimilarity matrix.
func BenchmarkAblationClusterCount(b *testing.B) {
	ev, _ := sharedEval(b)
	dis := core.DissimilarityMatrix(ev.Profiles)
	b.ResetTimer()
	var bestK int
	for i := 0; i < b.N; i++ {
		var err error
		bestK, _, err = cluster.BestK(dis, 2, 9, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bestK), "best_k")
}

// BenchmarkAblationAgglomerative compares PAM with average-linkage
// agglomerative clustering on the same dissimilarities, reporting the
// silhouette gap (positive = PAM better).
func BenchmarkAblationAgglomerative(b *testing.B) {
	ev, _ := sharedEval(b)
	dis := core.DissimilarityMatrix(ev.Profiles)
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		pam, err := cluster.PAM(dis, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := cluster.Agglomerative(dis, 5)
		if err != nil {
			b.Fatal(err)
		}
		gap = cluster.Silhouette(dis, pam.Assignments) - cluster.Silhouette(dis, agg.Assignments)
	}
	b.ReportMetric(gap, "pam_minus_agglo_silhouette")
}

// BenchmarkAblationLogTargets evaluates the variance-stabilizing
// transform extension (§VI): full evaluation with log-transformed power
// targets, reporting Model+FL compliance for comparison with the base
// run.
func BenchmarkAblationLogTargets(b *testing.B) {
	var ev *eval.Evaluation
	for i := 0; i < b.N; i++ {
		h := eval.NewHarness()
		h.Opts.Iterations = 1
		h.Opts.LogTargets = true
		var err error
		ev, err = h.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ev.Overall[sched.MethodModelFL].PctUnder*100, "modelFL_pct_under_log")
}

// BenchmarkAblationVarianceAware evaluates the variance-aware selection
// extension (§VI): predicted power + z·σ must fit the cap. Reports the
// compliance gain of the Model (no FL) policy at z=1.
func BenchmarkAblationVarianceAware(b *testing.B) {
	ev, space := sharedEval(b)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var baseMeets, vaMeets, total int
		for _, kp := range ev.Profiles {
			m := ev.FoldModels[kp.Benchmark]
			sr := core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
			truth := sched.ProfileTruth{Profile: kp}
			for _, pt := range kp.Frontier.Points() {
				capW := pt.Power
				base, err := m.SelectUnderCap(sr, capW)
				if err != nil {
					b.Fatal(err)
				}
				va, err := m.SelectUnderCapVarAware(sr, capW, 1)
				if err != nil {
					b.Fatal(err)
				}
				if truth.PowerAt(base.ConfigID) <= capW+1e-9 {
					baseMeets++
				}
				if truth.PowerAt(va.ConfigID) <= capW+1e-9 {
					vaMeets++
				}
				total++
			}
		}
		gain = float64(vaMeets-baseMeets) / float64(total) * 100
	}
	_ = space
	b.ReportMetric(gain, "va_compliance_gain_pct")
}

// BenchmarkAblationBoostStates measures the opportunistic-overclocking
// extension (§VI): how much extra unconstrained CPU performance the
// boost P-states buy on a compute-bound kernel when thermal headroom
// allows.
func BenchmarkAblationBoostStates(b *testing.B) {
	m := apu.DefaultMachine()
	k := kernels.Instantiate("CoMD", kernels.Suite()[1].Kernels[0], "Small")
	base := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: apu.MaxCPUFreq(), Threads: 4, GPUFreqGHz: apu.MinGPUFreq()}
	boost := base
	boost.CPUFreqGHz = apu.BoostPStates[len(apu.BoostPStates)-1].FreqGHz
	var speedup float64
	for i := 0; i < b.N; i++ {
		eb, err := m.Run(k.Workload, base)
		if err != nil {
			b.Fatal(err)
		}
		ebo, err := m.Run(k.Workload, boost)
		if err != nil {
			b.Fatal(err)
		}
		if !m.ThermalHeadroom(ebo.TotalPowerW(), 100) {
			speedup = 1 // boost gated off
		} else {
			speedup = eb.TimeSec / ebo.TimeSec
		}
	}
	b.ReportMetric(speedup, "boost_speedup")
}

// BenchmarkDissimilarityMatrix measures the pairwise frontier
// comparison over the full 65-profile suite (65×64/2 Kendall taus),
// sequentially and on the bounded worker pool. Both paths produce a
// bit-identical matrix; the gap is pure parallel speedup.
func BenchmarkDissimilarityMatrix(b *testing.B) {
	ev, _ := sharedEval(b)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.DissimilarityMatrixWorkers(ev.Profiles, bench.workers)
			}
		})
	}
}

// BenchmarkEvalFolds measures the cross-validation fold pipeline alone —
// characterization happens once outside the timer — comparing the
// sequential fold loop against the bounded fold pool. Both emit a
// deeply equal Evaluation; the acceptance bar is parallel ≥2× at
// GOMAXPROCS ≥ 4 (on a single-CPU host the two are expected to tie).
func BenchmarkEvalFolds(b *testing.B) {
	h := eval.NewHarness()
	h.Opts.Iterations = 3
	var ks []kernels.Kernel
	for _, c := range kernels.Combos() {
		ks = append(ks, c.Kernels...)
	}
	profs, err := core.Characterize(h.Profiler, ks, h.Opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			h.Workers = bench.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.RunOnProfiles(profs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeTraining measures classifier induction alone on the real
// feature set.
func BenchmarkTreeTraining(b *testing.B) {
	ev, _ := sharedEval(b)
	var X [][]float64
	var y []int
	m := ev.FoldModels["LU"]
	for _, kp := range ev.Profiles {
		if kp.Benchmark == "LU" {
			continue
		}
		X = append(X, core.ClassifierFeatures(kp.CPUSample, kp.GPUSample))
		y = append(y, m.Assignments[kp.KernelID])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Train(X, y, tree.Options{MaxDepth: 5, MinLeaf: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityGPUPower perturbs the machine's GPU dynamic-power
// coefficient ±25% and re-runs the full evaluation, reporting Model+FL
// compliance under each calibration. The paper's conclusions should not
// hinge on exact power-model constants.
func BenchmarkSensitivityGPUPower(b *testing.B) {
	run := func(scale float64) float64 {
		h := eval.NewHarness()
		h.Opts.Iterations = 1
		h.Profiler.Machine.GPUDynWPerV2GHz *= scale
		ev, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		return ev.Overall[sched.MethodModelFL].PctUnder
	}
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo = run(0.75)
		hi = run(1.25)
	}
	b.ReportMetric(lo*100, "modelFL_pct_under_gpu-25pct")
	b.ReportMetric(hi*100, "modelFL_pct_under_gpu+25pct")
}

// BenchmarkSensitivityMemoryBW perturbs peak DRAM bandwidth ±25%,
// shifting every kernel's roofline position, and reports Model+FL
// compliance.
func BenchmarkSensitivityMemoryBW(b *testing.B) {
	run := func(scale float64) float64 {
		h := eval.NewHarness()
		h.Opts.Iterations = 1
		h.Profiler.Machine.PeakBWGBs *= scale
		h.Profiler.Machine.GPUBWGBs *= scale
		ev, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		return ev.Overall[sched.MethodModelFL].PctUnder
	}
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo = run(0.75)
		hi = run(1.25)
	}
	b.ReportMetric(lo*100, "modelFL_pct_under_bw-25pct")
	b.ReportMetric(hi*100, "modelFL_pct_under_bw+25pct")
}

// BenchmarkRAPLConvergence measures how many controller iterations the
// running-average power limiter needs to settle on a compliant
// configuration — the temporal behaviour behind the FL baselines.
func BenchmarkRAPLConvergence(b *testing.B) {
	m := apu.DefaultMachine()
	k := kernels.Instantiate("CoMD", kernels.Suite()[1].Kernels[0], "Large")
	start := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: apu.MaxCPUFreq(), Threads: 4, GPUFreqGHz: apu.MinGPUFreq()}
	var steps int
	for i := 0; i < b.N; i++ {
		c, err := rapl.NewController(20, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		trace, _, err := rapl.Converge(m, k.Workload, start, c, rapl.PolicyCPU, 60)
		if err != nil {
			b.Fatal(err)
		}
		steps = len(trace)
	}
	b.ReportMetric(float64(steps), "iterations_to_settle")
}

// BenchmarkAblationThermalBoost runs the full opportunistic-boost
// simulation with the RC thermal model and governor (§VI), reporting
// the fraction of iterations that actually boosted on a hot kernel.
func BenchmarkAblationThermalBoost(b *testing.B) {
	m := apu.DefaultMachine()
	k := kernels.Instantiate("CoMD", kernels.Suite()[1].Kernels[0], "Large")
	base := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: apu.MaxCPUFreq(), Threads: 4, GPUFreqGHz: apu.MinGPUFreq()}
	var frac float64
	for i := 0; i < b.N; i++ {
		var err error
		_, frac, err = thermal.SimulateBoost(m, k.Workload, base, apu.BoostPStates[1].FreqGHz, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(frac*100, "boosted_iterations_pct")
}

// BenchmarkAdaptiveRuntimeApp drives a whole proxy application through
// the adaptive runtime (sampling → classify → pin → FL) and reports the
// end-to-end violation rate of pinned iterations.
func BenchmarkAdaptiveRuntimeApp(b *testing.B) {
	var training, app []kernels.Kernel
	for _, c := range kernels.Combos() {
		if c.Benchmark == "LULESH" {
			if c.Input == "Large" {
				app = c.Kernels
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
	var violRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime, err := rts.New(model, rts.Options{CapW: 24, FL: true})
		if err != nil {
			b.Fatal(err)
		}
		var pinned, viol int
		for step := 0; step < 6; step++ {
			for _, k := range app {
				s, err := runtime.RunKernel(k)
				if err != nil {
					b.Fatal(err)
				}
				if s.Phase == rts.PhasePinned {
					pinned++
					if !s.UnderCap {
						viol++
					}
				}
			}
		}
		violRate = float64(viol) / float64(pinned)
	}
	b.ReportMetric(violRate*100, "pinned_violation_pct")
}

// BenchmarkHybridAssumption checks §III-A's premise quantitatively: the
// best hybrid CPU+GPU split's performance-per-watt relative to the best
// single device, averaged over the suite (values ≤ 100 support the
// paper's decision to exclude hybrid execution).
func BenchmarkHybridAssumption(b *testing.B) {
	m := apu.DefaultMachine()
	cpu := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: apu.MaxCPUFreq(), Threads: 4, GPUFreqGHz: apu.MinGPUFreq()}
	gpu := apu.Config{Device: apu.GPUDevice, CPUFreqGHz: apu.MaxCPUFreq(), Threads: 1, GPUFreqGHz: apu.MaxGPUFreq()}
	var ratio float64
	for i := 0; i < b.N; i++ {
		var sum float64
		var count int
		for _, combo := range kernels.Combos() {
			for _, k := range combo.Kernels {
				ec, err := m.Run(k.Workload, cpu)
				if err != nil {
					b.Fatal(err)
				}
				eg, err := m.Run(k.Workload, gpu)
				if err != nil {
					b.Fatal(err)
				}
				best := ec.Perf() / ec.TotalPowerW()
				if e := eg.Perf() / eg.TotalPowerW(); e > best {
					best = e
				}
				h, err := m.BestHybridSplit(k.Workload, cpu, gpu, 9)
				if err != nil {
					b.Fatal(err)
				}
				sum += (h.Perf() / h.TotalPowerW()) / best
				count++
			}
		}
		ratio = sum / float64(count)
	}
	b.ReportMetric(ratio*100, "hybrid_perfperwatt_vs_best_pct")
}

// BenchmarkHierarchyWaterFill measures the cluster-level budget divider
// and reports the predicted-utility advantage of water-filling over a
// uniform split on a two-node cluster.
func BenchmarkHierarchyWaterFill(b *testing.B) {
	var training []kernels.Kernel
	apps := map[string][]kernels.Kernel{}
	for _, c := range kernels.Combos() {
		switch {
		case c.Benchmark == "CoMD" && c.Input == "Large":
			apps["comd"] = c.Kernels
		case c.Benchmark == "LULESH" && c.Input == "Small":
			apps["lulesh"] = c.Kernels
		case c.Benchmark == "SMC" || c.Benchmark == "LU":
			training = append(training, c.Kernels...)
		}
	}
	p := profiler.New()
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	opts.K = 4
	profs, err := core.Characterize(p, training, opts)
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.Train(p.Space, profs, opts)
	if err != nil {
		b.Fatal(err)
	}
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk := func(name string, app []kernels.Kernel) *hierarchy.Node {
			rt, err := rts.New(model, rts.Options{CapW: 28})
			if err != nil {
				b.Fatal(err)
			}
			return &hierarchy.Node{Name: name, Runtime: rt, App: app}
		}
		c, err := hierarchy.NewCluster(
			[]*hierarchy.Node{mk("a", apps["comd"]), mk("b", apps["lulesh"])}, 56, hierarchy.WaterFill)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if _, err := c.Step(); err != nil {
				b.Fatal(err)
			}
		}
		caps, err := c.Rebalance()
		if err != nil {
			b.Fatal(err)
		}
		gap = caps[0] - caps[1]
	}
	b.ReportMetric(gap, "cap_differentiation_w")
}

// BenchmarkExtensionStudy runs the §VI future-work variants (log
// transform, variance-aware selection, both) through the full harness
// and reports the compliance each buys for Model+FL.
func BenchmarkExtensionStudy(b *testing.B) {
	var results []eval.ExtensionResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = eval.RunExtensionStudy(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Variant.Name {
		case "base":
			b.ReportMetric(r.ModelFLPctUnder*100, "modelFL_under_base")
		case "+log+va":
			b.ReportMetric(r.ModelFLPctUnder*100, "modelFL_under_log_va")
		}
	}
}
