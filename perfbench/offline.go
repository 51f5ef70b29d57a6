package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"sort"
	"time"

	"acsel/internal/core"
	"acsel/internal/eval"
)

// sweepLen is the number of machine calibrations in the offline-eval
// sweep; evaluations cycle through them in order.
const sweepLen = 8

// perturbation scales the machine model the way the sensitivity
// studies do: GPU dynamic power, and both DRAM bandwidths together.
type perturbation struct {
	GPUDyn float64
	BW     float64
}

// perturbations is the seeded calibration sweep. Entry 0 is the
// unperturbed machine; the later entries scale each factor within ±25%,
// stratified: each factor takes one value in each of sweepLen-1 equal
// slices of the range, in a seeded order with a seeded offset inside
// the slice. Every seed's sweep thus spans the whole range evenly.
func perturbations(seed int64) []perturbation {
	rng := rand.New(rand.NewSource(seed))
	n := sweepLen - 1
	stratum := func() []float64 {
		vs := make([]float64, n)
		for i, slot := range rng.Perm(n) {
			vs[i] = 0.75 + 0.5*(float64(slot)+rng.Float64())/float64(n)
		}
		return vs
	}
	gpu, bw := stratum(), stratum()
	ps := []perturbation{{GPUDyn: 1, BW: 1}}
	for i := 0; i < n; i++ {
		ps = append(ps, perturbation{GPUDyn: gpu[i], BW: bw[i]})
	}
	return ps
}

// harnessFor builds a paper-default evaluation harness (3 profiling
// iterations, k = 5, no model cache) on the perturbed machine.
func harnessFor(p perturbation) *eval.Harness {
	h := eval.NewHarness()
	h.Profiler.Machine.GPUDynWPerV2GHz *= p.GPUDyn
	h.Profiler.Machine.PeakBWGBs *= p.BW
	h.Profiler.Machine.GPUBWGBs *= p.BW
	return h
}

// offlineStages are the offline-stage metric families read around each
// traced evaluation: (per-layer metric, family, label) — summed over
// the listed labels.
var offlineStages = []struct {
	metric, family string
	labels         []string
}{
	{"core.characterize_s", "acsel_core_phase_seconds", []string{"characterize"}},
	{"core.dissimilarity_s", "acsel_eval_matrix_seconds", []string{"full"}},
	{"core.train_s", "acsel_core_phase_seconds", []string{"cluster", "regressions", "classifier"}},
	{"eval.folds_s", "acsel_eval_phase_seconds", []string{"folds"}},
}

// offlineCounts are the counter families read the same way.
var offlineCounts = []struct{ metric, family string }{
	{"profiler.runs", "acsel_profiler_runs_total"},
	{"sched.decisions", "acsel_sched_decisions_total"},
}

// runOfflineEval is the researcher's path: full leave-one-benchmark-out
// evaluations through eval.Harness.Run over a seeded calibration sweep.
func runOfflineEval(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	zeroLayers(out)
	sweep := perturbations(cfg.seed)

	// Set-up builds entry 0's evaluation once, untimed by the loop: its
	// Table III is the one checked against acsel-bench.
	table0, err := timeSetup(out, func() (string, error) {
		ev, err := harnessFor(sweep[0]).Run()
		if err != nil {
			return "", err
		}
		return ev.ReportTable3(), nil
	})
	if err != nil {
		return nil, err
	}
	out.attempted++
	if err := checkTable3(cfg.acselBench, table0); err != nil {
		out.fail("%v", err)
	}

	tables := map[int]string{0: table0}
	var lat, cpu []float64
	// tracedLat and untracedLat hold traced and untraced evaluation
	// times per sweep entry, for the tracing overhead.
	tracedLat, untracedLat := make([][]float64, sweepLen), make([][]float64, sweepLen)
	var lastTraced *eval.Evaluation
	stageSums := map[string]float64{}
	traced := 0
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.maxUnits > 0 {
			if i >= cfg.maxUnits {
				break
			}
		} else if time.Since(start).Seconds() >= cfg.seconds &&
			(cfg.tr == nil || i >= 2*len(sweep)) { // a traced run needs a traced and an untraced sweep
			break
		}
		entry := i % len(sweep)
		// Whole sweeps alternate between traced and untraced, so both
		// sides see every calibration equally often.
		tr := cfg.tr
		if (i/len(sweep))%2 == 1 {
			tr = nil
		}
		h := harnessFor(sweep[entry])
		var before registry
		if tr != nil {
			before = readRegistry()
		}
		sp := tr.begin("eval.run", 0, 0)
		c0, t0 := cpuTime(), time.Now()
		ev, err := h.Run()
		d, c := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		sp.end()
		out.attempted++
		if err != nil {
			out.fail("evaluation %d (entry %d): %v", i, entry, err)
			continue
		}
		lat, cpu = append(lat, d), append(cpu, c)
		out.sampleHeap()
		table := ev.ReportTable3()
		if want, ok := tables[entry]; ok && want != table {
			out.fail("evaluation %d: entry %d's Table III differs from its first evaluation", i, entry)
		}
		tables[entry] = table
		if cfg.tr == nil {
			continue
		}
		if tr == nil {
			untracedLat[entry] = append(untracedLat[entry], d)
			continue
		}
		tracedLat[entry] = append(tracedLat[entry], d)
		after := readRegistry()
		for _, s := range offlineStages {
			for _, l := range s.labels {
				sum, _ := histDelta(before, after, s.family, l)
				stageSums[s.metric] += sum
			}
		}
		for _, c := range offlineCounts {
			stageSums[c.metric] += after.counter(c.family) - before.counter(c.family)
		}
		traced++
		lastTraced = ev
	}
	if len(lat) == 0 {
		return nil, errors.New("no evaluation completed")
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	finishE2E(out, cpu, lat)
	out.name("eval_p50_s", quantile(sorted, 0.5), "s")
	out.name("eval_p90_s", quantile(sorted, 0.9), "s")
	out.name("eval_cpu_s", median(cpu), "s")
	out.name("evaluations", float64(len(lat)), "count")

	if cfg.tr != nil && lastTraced != nil {
		for metric, sum := range stageSums {
			out.layers[metric] = sum / float64(traced)
		}
		var ratios []float64
		for entry, u := range untracedLat {
			if t := tracedLat[entry]; len(t) > 0 && len(u) > 0 {
				ratios = append(ratios, median(t)/median(u))
			}
		}
		out.layers["trace.overhead_ratio"] = median(ratios)
		if err := probeDecisions(cfg.tr, foldCases(lastTraced), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// foldCases builds the decision probe's inputs from an evaluation: every
// kernel under the fold model that held its benchmark out, asked about
// every cap on its oracle frontier — the same questions the evaluation
// asks of Model.SelectUnderCap.
func foldCases(ev *eval.Evaluation) []decisionCase {
	var cases []decisionCase
	for _, kp := range ev.Profiles {
		m := ev.FoldModels[kp.Benchmark]
		var caps []float64
		for _, pt := range kp.Frontier.Points() {
			caps = append(caps, pt.Power)
		}
		cases = append(cases, decisionCase{
			model: m,
			sr:    core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample},
			caps:  caps,
		})
	}
	return cases
}

// checkTable3 runs `acsel-bench -exp table3` and compares its standard
// output with the benchmark's own entry-0 Table III, byte for byte.
func checkTable3(acselBench, table string) error {
	if acselBench == "" {
		return fmt.Errorf("table3 gate: no acsel-bench binary given")
	}
	cmd := exec.Command(acselBench, "-exp", "table3")
	got, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("table3 gate: %s: %w", acselBench, err)
	}
	if want := table + "\n"; string(got) != want {
		return fmt.Errorf("table3 gate: acsel-bench printed\n%s\nbut the benchmark's entry-0 evaluation gives\n%s", got, want)
	}
	return nil
}
