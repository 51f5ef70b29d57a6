// Chaos evaluation (robustness methodology): re-run the Table III
// method comparison under each deterministic fault scenario and
// quantify how far each method's cap compliance degrades relative to
// the clean evaluation — once for a naive sensor consumer that takes
// every reading at face value, and once for the hardened controller
// with its sanity gate, redundant reads, and conservative floor.
//
// The expensive parts of the clean evaluation (characterization and
// the leave-one-benchmark-out fold models) are reused verbatim: only
// the per-cap decision processes re-run under faults, so a full chaos
// sweep over every built-in scenario costs a small fraction of the
// clean evaluation.
package eval

import (
	"fmt"
	"strings"

	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/sched"
)

// ChaosScenarioResult is one fault scenario's re-evaluation.
type ChaosScenarioResult struct {
	Scenario fault.Scenario
	Seed     int64
	// Naive and Hardened hold the full re-aggregated evaluations
	// (cases, per-kernel, per-combo, overall) for the two consumer
	// postures under this scenario.
	Naive    *Evaluation
	Hardened *Evaluation
}

// ChaosReport is the complete chaos sweep next to its clean baseline.
type ChaosReport struct {
	Clean     *Evaluation
	Seed      int64
	Scenarios []ChaosScenarioResult
}

// RunChaos re-evaluates every method under each fault scenario,
// reusing ev's characterization and fold models. The injection is
// keyed by (scenario, seed, kernel, cap, method, limiter step), so two
// calls with the same arguments produce bit-identical reports.
func (ev *Evaluation) RunChaos(scenarios []fault.Scenario, seed int64, methods []sched.Method) (*ChaosReport, error) {
	if len(methods) == 0 {
		methods = sched.Methods()
	}
	if len(ev.Profiles) == 0 || len(ev.FoldModels) == 0 {
		return nil, fmt.Errorf("eval: chaos requires a completed clean evaluation")
	}
	rep := &ChaosReport{Clean: ev, Seed: seed}
	for _, sc := range scenarios {
		inj := fault.NewInjector(sc, seed)
		naive, hardened := faulty{inj, false}, faulty{inj, true}
		res := ChaosScenarioResult{Scenario: sc, Seed: seed, Naive: &Evaluation{}, Hardened: &Evaluation{}}
		for _, kp := range ev.Profiles {
			model, ok := ev.FoldModels[kp.Benchmark]
			if !ok {
				return nil, fmt.Errorf("eval: no fold model for %s", kp.Benchmark)
			}
			runner := &sched.Runner{Space: model.Space, Model: model}
			cases, err := evaluateKernel(runner, kp, methods, naive, hardened)
			if err != nil {
				return nil, fmt.Errorf("eval: chaos %s on %s: %w", sc.Name, kp.KernelID, err)
			}
			res.Naive.Cases = append(res.Naive.Cases, cases[0]...)
			res.Hardened.Cases = append(res.Hardened.Cases, cases[1]...)
		}
		res.Naive.aggregate(methods)
		res.Hardened.aggregate(methods)
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}

// faulty decides with the sensor distorted by inj, in the naive or the
// hardened posture. Each (kernel, cap, method, posture) consumer gets
// its own reading key, so decision processes draw independent
// deterministic fault streams.
type faulty struct {
	inj      *fault.Injector
	hardened bool
}

func (f faulty) decide(r *sched.Runner, m sched.Method, truth sched.ProfileTruth, preds *core.Selector, capIdx int, capW float64) (sched.Decision, error) {
	posture := "naive"
	if f.hardened {
		posture = "hard"
	}
	readings := sched.FaultyReadings{
		Truth:  truth,
		Faults: f.inj,
		Key:    fmt.Sprintf("%s|c%d|%s|%s", truth.Profile.KernelID, capIdx, m, posture),
	}
	if f.hardened {
		return r.DecideHardened(m, truth, readings, preds, capW)
	}
	return r.DecideNaive(m, truth, readings, preds, capW)
}

// PctUnderCases returns the unweighted fraction of an evaluation's
// cases (optionally restricted to one method; pass nil for all) whose
// decisions met the cap — the acceptance metric of the chaos suite.
func PctUnderCases(e *Evaluation, m *sched.Method) float64 {
	total, under := 0, 0
	for _, c := range e.Cases {
		if m != nil && c.Method != *m {
			continue
		}
		total++
		if c.Under {
			under++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(under) / float64(total)
}

// Report renders the chaos sweep as a text table: per scenario and
// method, the weighted under-limit percentage clean, naive, and
// hardened, with the degradation deltas against clean.
func (cr *ChaosReport) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: Table III cap compliance under fault injection (seed %d)\n", cr.Seed)
	b.WriteString("naive = limiter believes every sensor reading; hardened = sanity gate + redundant reads + conservative floor\n")
	fmt.Fprintf(&b, "%-16s %-10s %-8s %-8s %-10s %-8s %-10s %-9s\n",
		"Scenario", "Method", "Clean%", "Naive%", "dNaive", "Hard%", "dHard", "PerfHard%")
	for _, sres := range cr.Scenarios {
		for _, m := range sched.Methods() {
			clean := cr.Clean.Overall[m]
			n := sres.Naive.Overall[m]
			h := sres.Hardened.Overall[m]
			perf := "-"
			if h.HasUnder {
				perf = fmt.Sprintf("%.1f", h.UnderPerfRatio*100)
			}
			fmt.Fprintf(&b, "%-16s %-10s %-8.1f %-8.1f %-10.1f %-8.1f %-10.1f %-9s\n",
				sres.Scenario.Name, m,
				clean.PctUnder*100,
				n.PctUnder*100, (n.PctUnder-clean.PctUnder)*100,
				h.PctUnder*100, (h.PctUnder-clean.PctUnder)*100,
				perf)
		}
	}
	return b.String()
}
