package eval

import (
	"reflect"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/sched"
)

// TestDecideFromPredictionsMatchesSelectUnderCap is the cross-path
// check for predicting once per kernel. For every fold model, held-out
// kernel, oracle-frontier cap, z ∈ {0, 1} and model-based method,
// Decide over the kernel's predictions must deeply equal the decision
// obtained the long way: SelectUnderCap (z = 0) or
// SelectUnderCapVarAware (z = 1) from the sample runs, re-classifying
// and re-predicting at every cap, followed by the same limiter.
func TestDecideFromPredictionsMatchesSelectUnderCap(t *testing.T) {
	h, ev := fullEval(t)
	space := h.Profiler.Space
	decisions := 0
	for _, kp := range ev.Profiles {
		model, ok := ev.FoldModels[kp.Benchmark]
		if !ok {
			t.Fatalf("no fold model holds out %s", kp.Benchmark)
		}
		truth := sched.ProfileTruth{Profile: kp}
		sr := core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
		for _, z := range []float64{0, 1} {
			r := &sched.Runner{Space: space, Model: model, VarAwareZ: z}
			preds, err := predictKernel(r, kp)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range kp.Frontier.Points() {
				capW := pt.Power
				var sel core.Selection
				if z > 0 {
					sel, err = model.SelectUnderCapVarAware(sr, capW, z)
				} else {
					sel, err = model.SelectUnderCap(sr, capW)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []sched.Method{sched.MethodModel, sched.MethodModelFL} {
					got, err := r.Decide(m, truth, preds, capW)
					if err != nil {
						t.Fatal(err)
					}
					want := limitFrom(space, m, truth, sel.Config, capW)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v cap %v z %v: Decide %+v, SelectUnderCap + limiter %+v",
							kp.KernelID, m, capW, z, got, want)
					}
					decisions++
				}
			}
		}
	}
	if decisions == 0 {
		t.Fatal("no decisions compared")
	}
	t.Logf("%d decisions agree", decisions)
}

// limitFrom finishes a model-based policy from the model's selected
// configuration, independently of package sched: Model keeps it, and
// Model+FL steps the GPU and then the CPU frequency down while true
// power exceeds the cap (§V-A).
func limitFrom(space *apu.Space, m sched.Method, truth sched.Truth, cfg apu.Config, capW float64) sched.Decision {
	const capSlack = 1e-9 // sched's tolerance on cap comparisons
	steps := 0
	for m == sched.MethodModelFL && truth.PowerAt(space.IDOf(cfg)) > capW+capSlack {
		if cfg.Device == apu.GPUDevice {
			if next, ok := apu.StepDownGPU(cfg.GPUFreqGHz); ok {
				cfg.GPUFreqGHz = next
				steps++
				continue
			}
		}
		next, ok := apu.StepDownCPU(cfg.CPUFreqGHz)
		if !ok {
			break
		}
		cfg.CPUFreqGHz = next
		steps++
	}
	id := space.IDOf(cfg)
	return sched.Decision{
		Method:    m,
		ConfigID:  id,
		Config:    space.Configs[id],
		TruePerf:  truth.PerfAt(id),
		TruePower: truth.PowerAt(id),
		FLSteps:   steps,
	}
}
