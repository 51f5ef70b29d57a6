package sched

import (
	"errors"
	"math"
	"sync"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
)

var (
	setupOnce sync.Once
	setupErr  error
	gSpace    *apu.Space
	gModel    *core.Model
	gProfiles []*core.KernelProfile
)

func setup(t *testing.T) (*apu.Space, *core.Model, []*core.KernelProfile) {
	t.Helper()
	setupOnce.Do(func() {
		p := profiler.New()
		var ks []kernels.Kernel
		for _, c := range kernels.Combos() {
			ks = append(ks, c.Kernels...)
		}
		opts := core.DefaultTrainOptions()
		opts.Iterations = 2
		profs, err := core.Characterize(p, ks, opts)
		if err != nil {
			setupErr = err
			return
		}
		m, err := core.Train(p.Space, profs, opts)
		if err != nil {
			setupErr = err
			return
		}
		gSpace, gModel, gProfiles = p.Space, m, profs
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return gSpace, gModel, gProfiles
}

// predsOf predicts every configuration of kp from its sample runs and
// compiles them, the per-kernel input of the model-based policies.
func predsOf(t *testing.T, m *core.Model, kp *core.KernelProfile) *core.Selector {
	t.Helper()
	s, err := m.PredictedFrontier(core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustDecide runs a policy that needs no predictions through Decide.
func mustDecide(t *testing.T, r *Runner, m Method, truth Truth, capW float64) Decision {
	t.Helper()
	d, err := r.Decide(m, truth, nil, capW)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodOracle: "Oracle", MethodModel: "Model", MethodModelFL: "Model+FL",
		MethodCPUFL: "CPU+FL", MethodGPUFL: "GPU+FL",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method should render")
	}
	if len(Methods()) != 4 {
		t.Errorf("Methods() = %v", Methods())
	}
}

func TestOracleIsOptimal(t *testing.T) {
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	for _, kp := range profs[:8] {
		truth := ProfileTruth{kp}
		for _, cap := range []float64{15, 20, 25, 30, 40} {
			d := r.Oracle(truth, cap)
			if !d.MeetsCap(cap) {
				// Only allowed when no config fits; then it must be the
				// machine's minimum-power configuration.
				for id := 0; id < space.Len(); id++ {
					if truth.PowerAt(id) <= cap {
						t.Fatalf("%s cap %v: oracle violated cap although config %d fits", kp.KernelID, cap, id)
					}
					if truth.PowerAt(id) < d.TruePower-1e-9 {
						t.Fatalf("%s cap %v: oracle fallback not minimal power", kp.KernelID, cap)
					}
				}
				continue
			}
			// No config under the cap may beat the oracle.
			for id := 0; id < space.Len(); id++ {
				if truth.PowerAt(id) <= cap+capSlack && truth.PerfAt(id) > d.TruePerf+1e-12 {
					t.Fatalf("%s cap %v: config %d beats oracle", kp.KernelID, cap, id)
				}
			}
		}
	}
}

func TestCPUFLUsesAllCoresAndParksGPU(t *testing.T) {
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{profs[0]}
	d := mustDecide(t, r, MethodCPUFL, truth, 25)
	if d.Config.Device != apu.CPUDevice || d.Config.Threads != apu.NumCores {
		t.Errorf("CPU+FL config = %v", d.Config)
	}
	if d.Config.GPUFreqGHz != apu.MinGPUFreq() {
		t.Errorf("CPU+FL GPU not parked: %v", d.Config)
	}
}

func TestCPUFLStepsDownUnderTightCap(t *testing.T) {
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{profs[0]}
	loose := mustDecide(t, r, MethodCPUFL, truth, 100)
	tight := mustDecide(t, r, MethodCPUFL, truth, 18)
	if loose.Config.CPUFreqGHz != apu.MaxCPUFreq() {
		t.Errorf("loose cap should keep max frequency, got %v", loose.Config)
	}
	if tight.Config.CPUFreqGHz >= loose.Config.CPUFreqGHz {
		t.Errorf("tight cap did not reduce frequency: %v", tight.Config)
	}
	if tight.FLSteps == 0 {
		t.Error("expected limiter steps under tight cap")
	}
}

func TestCPUFLCannotDropThreads(t *testing.T) {
	// §V-D: "CPU+FL always runs on four threads, thus violating the
	// lower constraints." Under an impossible cap it stays at 4 threads
	// and min frequency, over the cap.
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{profs[0]}
	d := mustDecide(t, r, MethodCPUFL, truth, 5)
	if d.Config.Threads != apu.NumCores || d.Config.CPUFreqGHz != apu.MinCPUFreq() {
		t.Errorf("config = %v", d.Config)
	}
	if d.MeetsCap(5) {
		t.Error("5 W cap should be impossible for 4 threads")
	}
}

func TestGPUFLStructure(t *testing.T) {
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{profs[0]}
	d := mustDecide(t, r, MethodGPUFL, truth, 100)
	if d.Config.Device != apu.GPUDevice {
		t.Errorf("GPU+FL device = %v", d.Config.Device)
	}
	// With unlimited cap the GPU stays at max and CPU is raised fully.
	if d.Config.GPUFreqGHz != apu.MaxGPUFreq() || d.Config.CPUFreqGHz != apu.MaxCPUFreq() {
		t.Errorf("unconstrained GPU+FL = %v", d.Config)
	}
}

func TestGPUFLStepsDownAndRaisesCPU(t *testing.T) {
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	// Find a kernel/cap where stepping matters: use a GPU-friendly
	// kernel with a mid cap.
	var kp *core.KernelProfile
	for _, p := range profs {
		if p.Benchmark == "LU" && p.Input == "Large" {
			kp = p
		}
	}
	if kp == nil {
		t.Fatal("missing LU Large")
	}
	truth := ProfileTruth{kp}
	full := mustDecide(t, r, MethodGPUFL, truth, 1000)
	mid := mustDecide(t, r, MethodGPUFL, truth, full.TruePower*0.8)
	if mid.Config.GPUFreqGHz >= full.Config.GPUFreqGHz && mid.TruePower > full.TruePower*0.8+capSlack {
		t.Errorf("GPU+FL did not step down: %v (%.1f W)", mid.Config, mid.TruePower)
	}
	// The invariant from §V-A: never raise CPU beyond what the cap allows
	// (if under cap at the end, fine; if over, GPU must be at min).
	if !mid.MeetsCap(full.TruePower*0.8) && mid.Config.GPUFreqGHz != apu.MinGPUFreq() {
		t.Errorf("over cap with GPU not at min: %v", mid.Config)
	}
}

func TestGPUFLCannotLeaveGPU(t *testing.T) {
	// GPU+FL's failure mode in the paper: it cannot relocate to the CPU,
	// so very low caps are violated.
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{profs[0]}
	d := mustDecide(t, r, MethodGPUFL, truth, 10)
	if d.Config.Device != apu.GPUDevice {
		t.Error("GPU+FL must stay on the GPU")
	}
	if d.MeetsCap(10) {
		t.Error("10 W should be impossible on the GPU")
	}
}

func TestModelMethodsNeedModel(t *testing.T) {
	space, model, profs := setup(t)
	r := &Runner{Space: space} // no model, even when handed predictions
	truth := ProfileTruth{profs[0]}
	preds := predsOf(t, model, profs[0])
	tr := TrueReadings{Truth: truth}
	for _, m := range []Method{MethodModel, MethodModelFL} {
		if _, err := r.Decide(m, truth, preds, 25); !errors.Is(err, ErrNeedModel) {
			t.Errorf("Decide %v: err = %v, want ErrNeedModel", m, err)
		}
		if _, err := r.DecideNaive(m, truth, tr, preds, 25); !errors.Is(err, ErrNeedModel) {
			t.Errorf("DecideNaive %v: err = %v, want ErrNeedModel", m, err)
		}
		if _, err := r.DecideHardened(m, truth, tr, preds, 25); !errors.Is(err, ErrNeedModel) {
			t.Errorf("DecideHardened %v: err = %v, want ErrNeedModel", m, err)
		}
	}
}

// TestModelMethodsNeedPredictions: a runner with a model but no
// predictions (the nil selector non-model callers pass) errors instead
// of choosing a configuration.
func TestModelMethodsNeedPredictions(t *testing.T) {
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	truth := ProfileTruth{profs[0]}
	for _, m := range []Method{MethodModel, MethodModelFL} {
		if d, err := r.Decide(m, truth, nil, 25); !errors.Is(err, core.ErrNoModel) {
			t.Errorf("%v without predictions: got %+v, %v; want core.ErrNoModel", m, d, err)
		}
	}
}

func TestModelFLNeverWorseThanModelOnPower(t *testing.T) {
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	for _, kp := range profs[:12] {
		truth := ProfileTruth{kp}
		preds := predsOf(t, model, kp)
		for _, cap := range []float64{16, 22, 30} {
			dm, err := r.Decide(MethodModel, truth, preds, cap)
			if err != nil {
				t.Fatal(err)
			}
			df, err := r.Decide(MethodModelFL, truth, preds, cap)
			if err != nil {
				t.Fatal(err)
			}
			if df.TruePower > dm.TruePower+capSlack {
				t.Errorf("%s cap %v: Model+FL power %v > Model %v", kp.KernelID, cap, df.TruePower, dm.TruePower)
			}
			// Model+FL keeps the model's structural choices.
			if df.Config.Device != dm.Config.Device || df.Config.Threads != dm.Config.Threads {
				t.Errorf("%s cap %v: FL changed device/threads: %v -> %v", kp.KernelID, cap, dm.Config, df.Config)
			}
		}
	}
}

func TestModelFLMeetsCapsMoreOftenThanModel(t *testing.T) {
	// The headline ordering of Table III: Model+FL ≥ Model on
	// cap compliance.
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	var modelMeets, flMeets, total int
	for _, kp := range profs {
		truth := ProfileTruth{kp}
		preds := predsOf(t, model, kp)
		for _, pt := range kp.Frontier.Points() {
			cap := pt.Power
			dm, err := r.Decide(MethodModel, truth, preds, cap)
			if err != nil {
				t.Fatal(err)
			}
			df, err := r.Decide(MethodModelFL, truth, preds, cap)
			if err != nil {
				t.Fatal(err)
			}
			if dm.MeetsCap(cap) {
				modelMeets++
			}
			if df.MeetsCap(cap) {
				flMeets++
			}
			total++
		}
	}
	if flMeets < modelMeets {
		t.Errorf("Model+FL meets %d/%d vs Model %d/%d", flMeets, total, modelMeets, total)
	}
	t.Logf("cap compliance: Model %d/%d, Model+FL %d/%d", modelMeets, total, flMeets, total)
}

func TestDecideDispatch(t *testing.T) {
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	truth := ProfileTruth{profs[0]}
	preds := predsOf(t, model, profs[0])
	for _, m := range []Method{MethodOracle, MethodModel, MethodModelFL, MethodCPUFL, MethodGPUFL} {
		d, err := r.Decide(m, truth, preds, 25)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if d.Method != m {
			t.Errorf("dispatch mislabeled: %v vs %v", d.Method, m)
		}
		if d.TruePerf <= 0 || d.TruePower <= 0 || math.IsNaN(d.TruePower) {
			t.Errorf("%v: decision %+v", m, d)
		}
	}
	if _, err := r.Decide(Method(9), truth, preds, 25); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMeetsCapTolerance(t *testing.T) {
	d := Decision{TruePower: 20}
	if !d.MeetsCap(20) {
		t.Error("equality must meet the cap")
	}
	if d.MeetsCap(19.99) {
		t.Error("19.99 cap met by 20 W")
	}
}

func BenchmarkOracle(b *testing.B) {
	p := profiler.New()
	k := kernels.Instantiate("LU", kernels.Suite()[3].Kernels[0], "Small")
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := core.Characterize(p, []kernels.Kernel{k}, opts)
	if err != nil {
		b.Fatal(err)
	}
	r := &Runner{Space: p.Space}
	truth := ProfileTruth{profs[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Oracle(truth, 22)
	}
}
