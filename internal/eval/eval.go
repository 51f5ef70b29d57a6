// Package eval reproduces the paper's experimental methodology (§V):
// leave-one-benchmark-out cross-validation of the model, evaluation of
// every power-limiting method against an oracle at the power levels of
// each kernel's oracle frontier, classification of outcomes into
// under-limit and over-limit cases, and aggregation per benchmark/input
// combination weighted by kernel time share.
package eval

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"acsel/internal/cluster"
	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/sched"
)

// Case is one (kernel, power cap, method) outcome compared with the
// oracle at the same cap.
type Case struct {
	KernelID   string
	Combo      string // benchmark/input label, e.g. "LULESH Small"
	Method     sched.Method
	CapW       float64
	Decision   sched.Decision
	Oracle     sched.Decision
	Under      bool
	PerfRatio  float64 // true perf / oracle perf at the same cap
	PowerRatio float64 // true power / oracle power at the same cap
	Weight     float64 // kernel's share of benchmark runtime
	// Infeasible marks a cap no configuration can meet: the oracle's
	// own selection violates it. Oracle-relative ratios are meaningless
	// there, so the case is flagged, its ratios are guarded, and
	// aggregation skips it rather than letting it poison the weighted
	// sums. Never set by Harness.Run or RunChaos, where every cap comes
	// from the kernel's own measured frontier.
	Infeasible bool
}

// safeRatio divides num by den, returning 0 when the quotient would be
// NaN or infinite (zero or non-finite denominator, non-finite
// numerator). Downstream weighted sums must stay finite no matter how
// degenerate the oracle's situation is.
func safeRatio(num, den float64) float64 {
	r := num / den
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

// KernelSummary aggregates one kernel's cases for one method.
type KernelSummary struct {
	KernelID string
	Method   sched.Method
	Weight   float64

	Cases      int
	UnderCases int

	// Means over the respective category; zero when the category is
	// empty (check the counts).
	UnderPerfRatio  float64
	UnderPowerRatio float64
	OverPerfRatio   float64
	OverPowerRatio  float64
}

// PctUnder is the fraction of caps met.
func (k KernelSummary) PctUnder() float64 {
	if k.Cases == 0 {
		return 0
	}
	return float64(k.UnderCases) / float64(k.Cases)
}

// MethodAgg is the weighted aggregate for one method over one scope (a
// benchmark/input combo, or the whole suite) — one row of Table III.
type MethodAgg struct {
	Method sched.Method

	PctUnder        float64
	UnderPerfRatio  float64
	UnderPowerRatio float64
	OverPerfRatio   float64
	OverPowerRatio  float64

	// HasOver reports whether any over-limit case exists in the scope
	// (GPU-hostile benchmarks may never violate).
	HasOver  bool
	HasUnder bool
}

// ComboAgg groups per-method aggregates for one benchmark/input combo —
// one bar group of Figures 5, 6, 8, 9.
type ComboAgg struct {
	Combo     string
	PerMethod map[sched.Method]MethodAgg
}

// Evaluation is the complete cross-validated result set.
type Evaluation struct {
	Cases     []Case
	PerKernel []KernelSummary
	PerCombo  []ComboAgg
	Overall   map[sched.Method]MethodAgg
	// FoldModels maps each held-out benchmark to the model trained on
	// the remaining benchmarks (for tree dumps etc.).
	FoldModels map[string]*core.Model
	// Profiles is the full characterization, for frontier reports.
	Profiles []*core.KernelProfile
}

// Harness drives a full evaluation.
type Harness struct {
	Profiler *profiler.Profiler
	Opts     core.TrainOptions
	// MethodsUnderTest defaults to sched.Methods().
	MethodsUnderTest []sched.Method
	// Workers bounds how many cross-validation folds train and
	// evaluate concurrently; 0 means GOMAXPROCS, 1 forces the
	// sequential path. Every worker count produces an identical
	// Evaluation: folds are independent, each is seeded by its own
	// copy of Opts, and results assemble in fold order.
	Workers int
	// varAwareZ is the §VI variance-aware selection margin the
	// extension study threads into every fold's runner (0 disables).
	varAwareZ float64
}

// NewHarness builds a harness with the paper's defaults.
func NewHarness() *Harness {
	return &Harness{Profiler: profiler.New(), Opts: core.DefaultTrainOptions()}
}

// Run characterizes the whole suite, then for each benchmark trains on
// the other benchmarks (leave-one-benchmark-out, §V-C) and evaluates
// every method on the held-out kernels at the oracle-frontier power
// caps (§V-B).
func (h *Harness) Run() (*Evaluation, error) {
	var ks []kernels.Kernel
	for _, c := range kernels.Combos() {
		ks = append(ks, c.Kernels...)
	}
	stopChar := mEvalPhase.With("characterize").Time()
	profiles, err := core.Characterize(h.Profiler, ks, h.Opts)
	stopChar()
	if err != nil {
		return nil, fmt.Errorf("eval: characterize: %w", err)
	}
	return h.RunOnProfiles(profiles)
}

// RunOnProfiles runs the cross-validated evaluation over an existing
// characterization — the incremental entry point: a caller holding
// fresh profiles (a re-characterized machine, an adaptive-retraining
// loop, a benchmark) pays only for folding, never for re-profiling.
//
// The suite-wide dissimilarity matrix is computed once; every fold
// reuses it through a Subset view instead of rebuilding its own O(n²)
// pairwise Kendall taus. Folds then train and evaluate on up to
// h.Workers goroutines. Both levels of concurrency are deterministic —
// the Evaluation is identical for any worker count, bit for bit.
//
//lint:deterministic
func (h *Harness) RunOnProfiles(profiles []*core.KernelProfile) (*Evaluation, error) {
	methods := h.MethodsUnderTest
	if len(methods) == 0 {
		methods = sched.Methods()
	}
	ev := &Evaluation{FoldModels: map[string]*core.Model{}, Profiles: profiles}
	benchNames := map[string]bool{}
	for _, kp := range profiles {
		benchNames[kp.Benchmark] = true
	}
	var benches []string
	for b := range benchNames {
		benches = append(benches, b)
	}
	sort.Strings(benches)

	stopMatrix := mMatrixSeconds.With("full").Time()
	fullDis := core.DissimilarityMatrix(profiles)
	stopMatrix()

	workers := h.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Each fold writes only its own slot; results are stitched together
	// in bench order afterwards, so the Cases sequence (and therefore
	// every aggregate and report) matches the sequential path exactly.
	type foldResult struct {
		model *core.Model
		cases []Case
		err   error
	}
	results := make([]foldResult, len(benches))
	stopFolds := mEvalPhase.With("folds").Time()
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for bi, bench := range benches {
		// Semaphore before spawn (see core.Characterize): never more
		// than `workers` fold goroutines exist at once.
		sem <- struct{}{}
		wg.Add(1)
		go func(bi int, bench string) {
			defer wg.Done()
			defer func() { <-sem }()
			mFoldWorkers.Add(1)
			defer mFoldWorkers.Add(-1)
			model, cases, err := h.runFold(profiles, bench, fullDis, methods)
			results[bi] = foldResult{model: model, cases: cases, err: err}
		}(bi, bench)
	}
	wg.Wait()
	stopFolds()

	for bi, bench := range benches {
		if err := results[bi].err; err != nil {
			return nil, fmt.Errorf("eval: fold %q: %w", bench, err)
		}
		ev.FoldModels[bench] = results[bi].model
		ev.Cases = append(ev.Cases, results[bi].cases...)
	}

	stopAgg := mEvalPhase.With("aggregate").Time()
	ev.aggregate(methods)
	stopAgg()
	return ev, nil
}

// runFold trains one leave-one-benchmark-out fold — reusing the
// suite-wide dissimilarity matrix through a Subset view — and evaluates
// every method on the held-out kernels. The fold trains from its own
// copy of h.Opts, so its clustering seed is the same deterministic
// value the sequential path would use.
func (h *Harness) runFold(profiles []*core.KernelProfile, bench string, fullDis *cluster.DissimilarityMatrix, methods []sched.Method) (*core.Model, []Case, error) {
	stopFold := mFoldSeconds.Time()
	defer stopFold()
	var train, test []*core.KernelProfile
	var trainIdx []int
	for i, kp := range profiles {
		if kp.Benchmark == bench {
			test = append(test, kp)
		} else {
			train = append(train, kp)
			trainIdx = append(trainIdx, i)
		}
	}
	stopSub := mMatrixSeconds.With("subset").Time()
	dis := fullDis.Subset(trainIdx)
	stopSub()
	model, err := core.TrainWithDissimilarity(h.Profiler.Space, train, dis, h.Opts)
	if err != nil {
		return nil, nil, fmt.Errorf("training: %w", err)
	}
	runner := &sched.Runner{Space: h.Profiler.Space, Model: model, VarAwareZ: h.varAwareZ}
	var out []Case
	for _, kp := range test {
		cases, err := evaluateKernel(runner, kp, methods, clean{})
		if err != nil {
			return nil, nil, fmt.Errorf("kernel %s: %w", kp.KernelID, err)
		}
		out = append(out, cases[0]...)
	}
	return model, out, nil
}

// decider makes method m's decision for a kernel at capW, the capIdx-th
// power level of its oracle frontier.
type decider interface {
	decide(r *sched.Runner, m sched.Method, truth sched.ProfileTruth, preds *core.Selector, capIdx int, capW float64) (sched.Decision, error)
}

// clean decides with the limiter reading exact true power.
type clean struct{}

func (clean) decide(r *sched.Runner, m sched.Method, truth sched.ProfileTruth, preds *core.Selector, _ int, capW float64) (sched.Decision, error) {
	return r.Decide(m, truth, preds, capW)
}

// evaluateKernel runs every method at every oracle-frontier power level
// of one kernel, once per decider, and returns one case list per
// decider. The oracle decides once per cap for all of them.
func evaluateKernel(r *sched.Runner, kp *core.KernelProfile, methods []sched.Method, deciders ...decider) ([][]Case, error) {
	truth := sched.ProfileTruth{Profile: kp}
	preds, err := predictKernel(r, kp)
	if err != nil {
		return nil, err
	}
	combo := comboLabel(kp)
	out := make([][]Case, len(deciders))
	for capIdx, pt := range kp.Frontier.Points() {
		capW := pt.Power
		oracle := r.Oracle(truth, capW)
		// An oracle that cannot meet the cap itself means the cap is
		// infeasible for every configuration; comparisons against it
		// are flagged instead of silently producing NaN/Inf ratios.
		infeasible := !oracle.MeetsCap(capW)
		for _, m := range methods {
			for i, dc := range deciders {
				d, err := dc.decide(r, m, truth, preds, capIdx, capW)
				if err != nil {
					return nil, err
				}
				if infeasible {
					mInfeasibleCases.Inc()
				}
				out[i] = append(out[i], Case{
					KernelID:   kp.KernelID,
					Combo:      combo,
					Method:     m,
					CapW:       capW,
					Decision:   d,
					Oracle:     oracle,
					Under:      d.MeetsCap(capW),
					PerfRatio:  safeRatio(d.TruePerf, oracle.TruePerf),
					PowerRatio: safeRatio(d.TruePower, oracle.TruePower),
					Weight:     kp.TimeShare,
					Infeasible: infeasible,
				})
			}
		}
	}
	return out, nil
}

// predictKernel predicts every configuration of kp once, from its two
// sample runs, and compiles them for the runner's model-based policies
// to select through at each cap. A runner without a model gets nil;
// its model-based policies then fail with sched.ErrNeedModel.
func predictKernel(r *sched.Runner, kp *core.KernelProfile) (*core.Selector, error) {
	if r.Model == nil {
		return nil, nil
	}
	return r.Model.PredictedFrontier(core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
}

func comboLabel(kp *core.KernelProfile) string {
	if kp.Input == "Default" {
		return kp.Benchmark
	}
	return kp.Benchmark + " " + kp.Input
}

// aggregate reduces cases to per-kernel summaries, per-combo weighted
// aggregates, and the overall Table III numbers.
func (ev *Evaluation) aggregate(methods []sched.Method) {
	type key struct {
		kernel string
		method sched.Method
	}
	byKernel := map[key][]Case{}
	comboOf := map[string]string{}
	weightOf := map[string]float64{}
	for _, c := range ev.Cases {
		if c.Infeasible {
			// No configuration could meet this cap; oracle-relative
			// ratios carry no signal, so the case stays out of every
			// summary (it remains visible in ev.Cases and CSV exports).
			continue
		}
		k := key{c.KernelID, c.Method}
		byKernel[k] = append(byKernel[k], c)
		comboOf[c.KernelID] = c.Combo
		weightOf[c.KernelID] = c.Weight
	}

	// Iterate kernel groups in sorted order rather than map order: the
	// appended summaries are sorted again below, but building them
	// deterministically keeps every intermediate (and any future
	// accumulation across groups) independent of map iteration.
	keys := make([]key, 0, len(byKernel))
	for k := range byKernel {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kernel != keys[j].kernel {
			return keys[i].kernel < keys[j].kernel
		}
		return keys[i].method < keys[j].method
	})
	for _, k := range keys {
		cases := byKernel[k]
		s := KernelSummary{KernelID: k.kernel, Method: k.method, Weight: weightOf[k.kernel], Cases: len(cases)}
		var upSum, uwSum, opSum, owSum float64
		var overCases int
		for _, c := range cases {
			if c.Under {
				s.UnderCases++
				upSum += c.PerfRatio
				uwSum += c.PowerRatio
			} else {
				overCases++
				opSum += c.PerfRatio
				owSum += c.PowerRatio
			}
		}
		if s.UnderCases > 0 {
			s.UnderPerfRatio = upSum / float64(s.UnderCases)
			s.UnderPowerRatio = uwSum / float64(s.UnderCases)
		}
		if overCases > 0 {
			s.OverPerfRatio = opSum / float64(overCases)
			s.OverPowerRatio = owSum / float64(overCases)
		}
		ev.PerKernel = append(ev.PerKernel, s)
	}
	sort.Slice(ev.PerKernel, func(i, j int) bool {
		if ev.PerKernel[i].KernelID != ev.PerKernel[j].KernelID {
			return ev.PerKernel[i].KernelID < ev.PerKernel[j].KernelID
		}
		return ev.PerKernel[i].Method < ev.PerKernel[j].Method
	})

	combos := map[string]bool{}
	for _, c := range comboOf {
		combos[c] = true
	}
	var comboNames []string
	for c := range combos {
		comboNames = append(comboNames, c)
	}
	sort.Strings(comboNames)

	for _, combo := range comboNames {
		agg := ComboAgg{Combo: combo, PerMethod: map[sched.Method]MethodAgg{}}
		for _, m := range methods {
			var scoped []KernelSummary
			for _, s := range ev.PerKernel {
				if s.Method == m && comboOf[s.KernelID] == combo {
					scoped = append(scoped, s)
				}
			}
			agg.PerMethod[m] = aggregateSummaries(m, scoped)
		}
		ev.PerCombo = append(ev.PerCombo, agg)
	}

	ev.Overall = map[sched.Method]MethodAgg{}
	for _, m := range methods {
		var scoped []KernelSummary
		for _, s := range ev.PerKernel {
			if s.Method == m {
				scoped = append(scoped, s)
			}
		}
		ev.Overall[m] = aggregateSummaries(m, scoped)
	}
}

// aggregateSummaries computes the time-share-weighted aggregate the
// paper uses ("averaged across all kernels that compose each benchmark,
// weighted by how much of the benchmark time is spent in each kernel").
// Category means only weight kernels that have cases in that category.
func aggregateSummaries(m sched.Method, ss []KernelSummary) MethodAgg {
	agg := MethodAgg{Method: m}
	var wAll, wUnder, wOver float64
	for _, s := range ss {
		w := s.Weight
		wAll += w
		agg.PctUnder += w * s.PctUnder()
		if s.UnderCases > 0 {
			wUnder += w
			agg.UnderPerfRatio += w * s.UnderPerfRatio
			agg.UnderPowerRatio += w * s.UnderPowerRatio
		}
		if s.Cases-s.UnderCases > 0 {
			wOver += w
			agg.OverPerfRatio += w * s.OverPerfRatio
			agg.OverPowerRatio += w * s.OverPowerRatio
		}
	}
	if wAll > 0 {
		agg.PctUnder /= wAll
	}
	if wUnder > 0 {
		agg.UnderPerfRatio /= wUnder
		agg.UnderPowerRatio /= wUnder
		agg.HasUnder = true
	}
	if wOver > 0 {
		agg.OverPerfRatio /= wOver
		agg.OverPowerRatio /= wOver
		agg.HasOver = true
	}
	return agg
}

// ComboNames returns the evaluated combo labels in order.
func (ev *Evaluation) ComboNames() []string {
	var out []string
	for _, c := range ev.PerCombo {
		out = append(out, c.Combo)
	}
	return out
}

// ProfileByID finds a characterized kernel profile.
func (ev *Evaluation) ProfileByID(id string) (*core.KernelProfile, bool) {
	for _, kp := range ev.Profiles {
		if kp.KernelID == id {
			return kp, true
		}
	}
	return nil, false
}
