package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"acsel/internal/core"
	"acsel/internal/sched"
)

var (
	evalOnce sync.Once
	evalErr  error
	gEval    *Evaluation
	gHarness *Harness
)

func fullEval(t *testing.T) (*Harness, *Evaluation) {
	t.Helper()
	evalOnce.Do(func() {
		gHarness = NewHarness()
		gHarness.Opts.Iterations = 2
		gEval, evalErr = gHarness.Run()
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return gHarness, gEval
}

func TestRunProducesAllFolds(t *testing.T) {
	_, ev := fullEval(t)
	for _, bench := range []string{"LULESH", "CoMD", "SMC", "LU"} {
		if ev.FoldModels[bench] == nil {
			t.Errorf("missing fold model for %s", bench)
		}
	}
	if len(ev.Profiles) != 65 {
		t.Errorf("profiles = %d, want 65", len(ev.Profiles))
	}
}

func TestCasesCoverEveryKernelAndMethod(t *testing.T) {
	_, ev := fullEval(t)
	type key struct {
		kernel string
		method sched.Method
	}
	seen := map[key]int{}
	for _, c := range ev.Cases {
		seen[key{c.KernelID, c.Method}]++
	}
	for _, kp := range ev.Profiles {
		for _, m := range sched.Methods() {
			if seen[key{kp.KernelID, m}] == 0 {
				t.Errorf("no cases for %s / %v", kp.KernelID, m)
			}
		}
	}
}

func TestCaseInvariants(t *testing.T) {
	_, ev := fullEval(t)
	for _, c := range ev.Cases {
		if c.PerfRatio <= 0 || math.IsNaN(c.PerfRatio) || math.IsInf(c.PerfRatio, 0) {
			t.Fatalf("%s %v: perf ratio %v", c.KernelID, c.Method, c.PerfRatio)
		}
		if c.PowerRatio <= 0 || math.IsNaN(c.PowerRatio) {
			t.Fatalf("%s %v: power ratio %v", c.KernelID, c.Method, c.PowerRatio)
		}
		if c.Under != c.Decision.MeetsCap(c.CapW) {
			t.Fatalf("%s %v: Under flag inconsistent", c.KernelID, c.Method)
		}
		// Exceeding oracle performance is only possible when exceeding
		// oracle power under the same cap (Fig 9 caption), whenever the
		// oracle itself met the cap.
		if c.Oracle.MeetsCap(c.CapW) && c.Under && c.PerfRatio > 1+1e-9 {
			t.Fatalf("%s %v cap %.2f: under-limit case beat the oracle (%v)", c.KernelID, c.Method, c.CapW, c.PerfRatio)
		}
	}
}

func TestOverallShapeMatchesPaper(t *testing.T) {
	// The paper's qualitative result (Table III / Fig 4):
	//  - Model+FL meets constraints most often;
	//  - GPU+FL meets them least often among FL methods but achieves
	//    high under-limit performance;
	//  - CPU+FL leaves the most performance on the table;
	//  - over-limit, GPU+FL overshoots power the most.
	_, ev := fullEval(t)
	modelFL := ev.Overall[sched.MethodModelFL]
	model := ev.Overall[sched.MethodModel]
	gpuFL := ev.Overall[sched.MethodGPUFL]
	cpuFL := ev.Overall[sched.MethodCPUFL]

	t.Logf("PctUnder: Model %.2f Model+FL %.2f GPU+FL %.2f CPU+FL %.2f",
		model.PctUnder, modelFL.PctUnder, gpuFL.PctUnder, cpuFL.PctUnder)
	t.Logf("UnderPerf: Model %.2f Model+FL %.2f GPU+FL %.2f CPU+FL %.2f",
		model.UnderPerfRatio, modelFL.UnderPerfRatio, gpuFL.UnderPerfRatio, cpuFL.UnderPerfRatio)
	t.Logf("OverPower: Model %.2f Model+FL %.2f GPU+FL %.2f CPU+FL %.2f",
		model.OverPowerRatio, modelFL.OverPowerRatio, gpuFL.OverPowerRatio, cpuFL.OverPowerRatio)

	if modelFL.PctUnder < gpuFL.PctUnder {
		t.Errorf("Model+FL (%.2f) should meet caps more often than GPU+FL (%.2f)", modelFL.PctUnder, gpuFL.PctUnder)
	}
	if modelFL.PctUnder < model.PctUnder {
		t.Errorf("Model+FL (%.2f) should meet caps at least as often as Model (%.2f)", modelFL.PctUnder, model.PctUnder)
	}
	if modelFL.PctUnder < 0.7 {
		t.Errorf("Model+FL compliance %.2f below the paper's regime (~0.88)", modelFL.PctUnder)
	}
	if modelFL.UnderPerfRatio < 0.75 {
		t.Errorf("Model+FL under-limit perf %.2f below the paper's regime (~0.91)", modelFL.UnderPerfRatio)
	}
	if cpuFL.UnderPerfRatio > modelFL.UnderPerfRatio {
		t.Errorf("CPU+FL under-limit perf (%.2f) should trail Model+FL (%.2f)", cpuFL.UnderPerfRatio, modelFL.UnderPerfRatio)
	}
	if gpuFL.HasOver && modelFL.HasOver && gpuFL.OverPowerRatio < modelFL.OverPowerRatio {
		t.Errorf("GPU+FL over-limit power (%.2f) should exceed Model+FL (%.2f)", gpuFL.OverPowerRatio, modelFL.OverPowerRatio)
	}
}

func TestGPUFLOverLimitPerfExtreme(t *testing.T) {
	// Fig 9: GPU+FL's over-limit performance is wildly above the oracle
	// on GPU-friendly benchmarks (clipped at 9297% for LU Large).
	_, ev := fullEval(t)
	found := false
	for _, combo := range ev.PerCombo {
		agg := combo.PerMethod[sched.MethodGPUFL]
		if agg.HasOver && agg.OverPerfRatio > 3 {
			found = true
		}
	}
	if !found {
		t.Error("expected at least one combo where GPU+FL over-limit perf exceeds 300% of oracle")
	}
}

func TestPerComboCoversAllCombos(t *testing.T) {
	_, ev := fullEval(t)
	names := ev.ComboNames()
	if len(names) != 8 {
		t.Errorf("combos = %v", names)
	}
	for _, want := range []string{"LULESH Small", "LULESH Large", "CoMD Small", "CoMD Large", "SMC", "LU Small", "LU Medium", "LU Large"} {
		ok := false
		for _, n := range names {
			if n == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("missing combo %q", want)
		}
	}
}

func TestKernelSummaryConsistency(t *testing.T) {
	_, ev := fullEval(t)
	for _, s := range ev.PerKernel {
		if s.UnderCases > s.Cases {
			t.Fatalf("%s: under %d > cases %d", s.KernelID, s.UnderCases, s.Cases)
		}
		if p := s.PctUnder(); p < 0 || p > 1 {
			t.Fatalf("%s: PctUnder %v", s.KernelID, p)
		}
		if s.UnderCases > 0 && s.UnderPerfRatio <= 0 {
			t.Fatalf("%s: empty under metrics despite under cases", s.KernelID)
		}
	}
	if (KernelSummary{}).PctUnder() != 0 {
		t.Error("empty summary PctUnder should be 0")
	}
}

func TestReportTable1(t *testing.T) {
	h, ev := fullEval(t)
	out, err := ev.ReportTable1(h.Profiler.Space)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "CPU") || !strings.Contains(out, "GPU") {
		t.Errorf("Table I output:\n%s", out)
	}
	// The frontier must include both devices (the paper's Table I has a
	// CPU ramp then a GPU section).
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Errorf("Table I too short:\n%s", out)
	}
}

func TestReportFig2(t *testing.T) {
	h, ev := fullEval(t)
	out, err := ev.ReportFig2(h.Profiler.Space)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Error("Fig 2 scatter should mark frontier points")
	}
	pts, err := ev.Fig2Series(h.Profiler.Space)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != h.Profiler.Space.Len() {
		t.Errorf("Fig 2 points = %d, want %d", len(pts), h.Profiler.Space.Len())
	}
}

func TestReportTable2(t *testing.T) {
	out := ReportTable2()
	if !strings.Contains(out, "3.7 GHz") || !strings.Contains(out, "819 MHz") || !strings.Contains(out, "311 MHz") {
		t.Errorf("Table II:\n%s", out)
	}
}

func TestReportFig1(t *testing.T) {
	out := ReportFig1()
	for _, stage := range []string{"offline", "online", "Pareto", "cluster", "classif"} {
		if !strings.Contains(out, stage) {
			t.Errorf("Fig 1 missing %q:\n%s", stage, out)
		}
	}
}

func TestReportFig3(t *testing.T) {
	_, ev := fullEval(t)
	out, err := ev.ReportFig3("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cluster") {
		t.Errorf("Fig 3:\n%s", out)
	}
	if _, err := ev.ReportFig3("NotABenchmark"); err == nil {
		t.Error("unknown fold accepted")
	}
}

func TestReportTable3AndFig4(t *testing.T) {
	_, ev := fullEval(t)
	t3 := ev.ReportTable3()
	for _, m := range sched.Methods() {
		if !strings.Contains(t3, m.String()) {
			t.Errorf("Table III missing %v:\n%s", m, t3)
		}
	}
	f4 := ev.ReportFig4()
	if !strings.Contains(f4, "Model+FL") {
		t.Errorf("Fig 4:\n%s", f4)
	}
	if len(ev.Fig4Series()) != len(sched.Methods()) {
		t.Error("Fig 4 series size")
	}
}

func TestReportPerComboFigs(t *testing.T) {
	_, ev := fullEval(t)
	for name, rep := range map[string]string{
		"fig5": ev.ReportFig5(), "fig6": ev.ReportFig6(),
		"fig8": ev.ReportFig8(), "fig9": ev.ReportFig9(),
	} {
		if !strings.Contains(rep, "LULESH Small") || !strings.Contains(rep, "LU Large") {
			t.Errorf("%s missing combos:\n%s", name, rep)
		}
	}
}

func TestReportFig7(t *testing.T) {
	h, ev := fullEval(t)
	out, err := ev.ReportFig7(h.Profiler.Space)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "LU Small") {
		t.Errorf("Fig 7:\n%s", out)
	}
}

func TestReportClusterAssignments(t *testing.T) {
	_, ev := fullEval(t)
	out := ReportClusterAssignments(ev.FoldModels["LU"])
	if !strings.Contains(out, "cluster 0") {
		t.Errorf("cluster report:\n%s", out)
	}
}

func TestProfileByID(t *testing.T) {
	_, ev := fullEval(t)
	if _, ok := ev.ProfileByID(FrontierKernelID); !ok {
		t.Error("Table I kernel missing from profiles")
	}
	if _, ok := ev.ProfileByID("nope"); ok {
		t.Error("unknown ID found")
	}
}

func TestModelBeatsNaiveBaselinesOnBalance(t *testing.T) {
	// Fig 4's geometric takeaway: Model+FL is closest to the oracle
	// corner (1, 1) considering both axes together.
	_, ev := fullEval(t)
	dist := func(a MethodAgg) float64 {
		dx := 1 - a.PctUnder
		dy := 1 - a.UnderPerfRatio
		return math.Hypot(dx, dy)
	}
	dModelFL := dist(ev.Overall[sched.MethodModelFL])
	for _, m := range []sched.Method{sched.MethodCPUFL, sched.MethodGPUFL} {
		if d := dist(ev.Overall[m]); d < dModelFL {
			t.Errorf("%v is closer to the oracle corner (%.3f) than Model+FL (%.3f)", m, d, dModelFL)
		}
	}
}

func TestEvaluationDeterministic(t *testing.T) {
	// A second, fresh harness must reproduce identical headline numbers.
	h2 := NewHarness()
	h2.Opts.Iterations = 2
	ev2, err := h2.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, ev1 := fullEval(t)
	for _, m := range sched.Methods() {
		a, b := ev1.Overall[m], ev2.Overall[m]
		if a.PctUnder != b.PctUnder || a.UnderPerfRatio != b.UnderPerfRatio {
			t.Errorf("%v: evaluation not deterministic (%v vs %v)", m, a, b)
		}
	}
}

func TestAccuracyStats(t *testing.T) {
	_, ev := fullEval(t)
	a, err := ev.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if a.PerfMedAPE <= 0 || a.PerfMedAPE > 0.6 {
		t.Errorf("perf median APE = %v", a.PerfMedAPE)
	}
	if a.PowerMedAPE <= 0 || a.PowerMedAPE > 0.35 {
		t.Errorf("power median APE = %v", a.PowerMedAPE)
	}
	if a.RankFidelity < 0.5 {
		t.Errorf("rank fidelity = %v, want >= 0.5 (models must rank configs)", a.RankFidelity)
	}
	if a.DeviceAccuracy < 0.7 {
		t.Errorf("device accuracy = %v", a.DeviceAccuracy)
	}
	if a.ClassifierAccuracy < 0.7 {
		t.Errorf("classifier accuracy = %v", a.ClassifierAccuracy)
	}
	if len(a.PerBenchmark) != 4 {
		t.Errorf("per-benchmark entries = %d", len(a.PerBenchmark))
	}
	for bench, pb := range a.PerBenchmark {
		if pb.Kernels == 0 {
			t.Errorf("%s: zero kernels", bench)
		}
	}
	t.Logf("accuracy: perf medAPE %.3f, power medAPE %.3f, tau %.3f, device %.2f, tree %.2f",
		a.PerfMedAPE, a.PowerMedAPE, a.RankFidelity, a.DeviceAccuracy, a.ClassifierAccuracy)
}

func TestReportAccuracy(t *testing.T) {
	_, ev := fullEval(t)
	out, err := ev.ReportAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"median APE", "Kendall tau", "best-device", "LULESH"} {
		if !strings.Contains(out, want) {
			t.Errorf("accuracy report missing %q:\n%s", want, out)
		}
	}
}

// TestHeadlineNumbersPinned pins the exact headline values of the
// default two-iteration evaluation. The whole pipeline is deterministic
// (hash-seeded noise, seeded clustering), so any drift here means a
// behavioural change somewhere in the substrate or model — which must
// be deliberate and accompanied by an EXPERIMENTS.md update.
func TestHeadlineNumbersPinned(t *testing.T) {
	_, ev := fullEval(t)
	pin := func(name string, got, want float64) {
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("%s = %.4f, pinned at %.4f — update EXPERIMENTS.md if intentional", name, got, want)
		}
	}
	pin("Model+FL pct-under", ev.Overall[sched.MethodModelFL].PctUnder, 0.8232)
	pin("Model+FL under-perf", ev.Overall[sched.MethodModelFL].UnderPerfRatio, 0.9246)
	pin("GPU+FL pct-under", ev.Overall[sched.MethodGPUFL].PctUnder, 0.5297)
	pin("CPU+FL under-perf", ev.Overall[sched.MethodCPUFL].UnderPerfRatio, 0.6084)
}

func TestSafeRatio(t *testing.T) {
	for _, tc := range []struct {
		num, den, want float64
	}{
		{3, 4, 0.75},
		{1, 0, 0},           // would be +Inf
		{-1, 0, 0},          // would be -Inf
		{0, 0, 0},           // would be NaN
		{math.Inf(1), 2, 0}, // non-finite numerator
		{math.NaN(), 1, 0},  // NaN numerator
		{2, math.Inf(1), 0}, // 2/Inf = 0 already
		{1e-300, 1e300, 0},  // underflows to exact 0, passes through
		{1e300, 1e-300, 0},  // overflows to +Inf, guarded
	} {
		got := safeRatio(tc.num, tc.den)
		if got != tc.want {
			t.Errorf("safeRatio(%v, %v) = %v, want %v", tc.num, tc.den, got, tc.want)
		}
	}
}

// TestInfeasibleCapsFlaggedAndGuarded regresses the division-by-zero /
// infeasible-cap fix: a profile whose every configuration draws far
// more power than any frontier cap (and measures zero performance, so
// oracle-relative ratios would be 0/0) must yield cases that are
// flagged Infeasible with finite ratios, and aggregation must skip them
// rather than folding garbage into the weighted sums.
func TestInfeasibleCapsFlaggedAndGuarded(t *testing.T) {
	h, ev := fullEval(t)
	src := ev.Profiles[0]
	runner := &sched.Runner{Space: h.Profiler.Space, Model: ev.FoldModels[src.Benchmark]}

	doctored := *src
	doctored.Stats = append([]core.ConfigStats(nil), src.Stats...)
	for i := range doctored.Stats {
		doctored.Stats[i].MeanPower = 1e6
		doctored.Stats[i].MeanPerf = 0
	}

	before := mInfeasibleCases.Value()
	perDecider, err := evaluateKernel(runner, &doctored, sched.Methods(), clean{})
	if err != nil {
		t.Fatal(err)
	}
	cases := perDecider[0]
	if len(cases) == 0 {
		t.Fatal("no cases produced")
	}
	if got := mInfeasibleCases.Value() - before; got != float64(len(cases)) {
		t.Errorf("acsel_eval_infeasible_cases_total moved by %v over %d infeasible cases", got, len(cases))
	}
	for _, c := range cases {
		if !c.Infeasible {
			t.Fatalf("%v cap %v: infeasible cap not flagged", c.Method, c.CapW)
		}
		if c.Under {
			t.Fatalf("%v cap %v: claims to meet an infeasible cap", c.Method, c.CapW)
		}
		for name, r := range map[string]float64{"perf": c.PerfRatio, "power": c.PowerRatio} {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("%v cap %v: %s ratio = %v, guard failed", c.Method, c.CapW, name, r)
			}
		}
	}

	degenerate := &Evaluation{Cases: cases}
	degenerate.aggregate(sched.Methods())
	if len(degenerate.PerKernel) != 0 {
		t.Errorf("infeasible cases produced %d kernel summaries, want 0", len(degenerate.PerKernel))
	}
	for m, agg := range degenerate.Overall {
		for _, v := range []float64{agg.PctUnder, agg.UnderPerfRatio, agg.UnderPowerRatio, agg.OverPerfRatio, agg.OverPowerRatio} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%v: non-finite aggregate %v", m, v)
			}
		}
	}
}

func TestCleanRunsHaveNoInfeasibleCases(t *testing.T) {
	// Every clean-run cap is a frontier-point power of the kernel
	// itself, so the oracle always meets it; the Infeasible flag must
	// stay a fault-path-only marker and never perturb Table III.
	_, ev := fullEval(t)
	for _, c := range ev.Cases {
		if c.Infeasible {
			t.Fatalf("%s %v cap %v flagged infeasible on a clean run", c.KernelID, c.Method, c.CapW)
		}
	}
}

func TestPlotFrontier(t *testing.T) {
	h, ev := fullEval(t)
	out, err := ev.PlotFrontier(h.Profiler.Space, FrontierKernelID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"C", "G", "power (W)", "normalized performance"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 20 {
		t.Errorf("plot too short (%d lines)", len(lines))
	}
	if _, err := ev.PlotFrontier(h.Profiler.Space, "nope"); err == nil {
		t.Error("unknown kernel plotted")
	}
}

func TestExtensionStudy(t *testing.T) {
	results, err := RunExtensionStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ExtensionVariants()) {
		t.Fatalf("results = %d", len(results))
	}
	base := results[0]
	for _, r := range results {
		for _, v := range []float64{r.ModelPctUnder, r.ModelFLPctUnder, r.ModelUnderPerf, r.ModelFLUnderPerf} {
			if v <= 0 || v > 1.01 {
				t.Errorf("variant %s: out-of-range metric %v", r.Variant.Name, v)
			}
		}
	}
	// The variance-aware margin must raise plain-Model compliance over
	// base (it buys compliance with expected performance).
	var va ExtensionResult
	for _, r := range results {
		if r.Variant.Name == "+va(z=1)" {
			va = r
		}
	}
	if va.ModelPctUnder <= base.ModelPctUnder {
		t.Errorf("variance-aware compliance %.2f not above base %.2f", va.ModelPctUnder, base.ModelPctUnder)
	}
	out := ReportExtensionStudy(results)
	if !strings.Contains(out, "+log+va") {
		t.Errorf("report:\n%s", out)
	}
	t.Log("\n" + out)
}

func TestWorstPredicted(t *testing.T) {
	_, ev := fullEval(t)
	worst, err := ev.WorstPredicted(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(worst) != 5 {
		t.Fatalf("worst = %d", len(worst))
	}
	for i := 1; i < len(worst); i++ {
		if worst[i].PerfMedAPE > worst[i-1].PerfMedAPE {
			t.Error("not sorted by descending error")
		}
	}
	out, err := ev.ReportWorstPredicted(5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "worst-predicted") {
		t.Errorf("report:\n%s", out)
	}
	// n=0 returns everything.
	all, err := ev.WorstPredicted(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 65 {
		t.Errorf("all = %d", len(all))
	}
}
