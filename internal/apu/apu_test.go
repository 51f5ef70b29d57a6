package apu

import (
	"math"
	"math/rand"
	"testing"
)

func testWorkload() Workload {
	return Workload{
		Name:           "test-kernel",
		FLOPs:          2e8,
		Bytes:          5e7,
		ParFrac:        0.95,
		VecFrac:        0.5,
		BranchFrac:     0.08,
		GPUAffinity:    0.25,
		GPUBytesFactor: 1.1,
		LaunchCycles:   3e6,
		L1MissRate:     0.03,
		L2MissRate:     0.3,
		TLBMissRate:    0.002,
		InstrPerFlop:   1.6,
	}
}

func TestDeviceString(t *testing.T) {
	if CPUDevice.String() != "CPU" || GPUDevice.String() != "GPU" {
		t.Fatal("device strings")
	}
	if Device(9).String() == "" {
		t.Fatal("unknown device should still render")
	}
}

func TestVoltageLookups(t *testing.T) {
	for _, p := range CPUPStates {
		v, err := CPUVoltage(p.FreqGHz)
		if err != nil || v != p.Voltage {
			t.Errorf("CPUVoltage(%v) = %v, %v", p.FreqGHz, v, err)
		}
	}
	for _, p := range GPUPStates {
		v, err := GPUVoltage(p.FreqGHz)
		if err != nil || v != p.Voltage {
			t.Errorf("GPUVoltage(%v) = %v, %v", p.FreqGHz, v, err)
		}
	}
	if _, err := CPUVoltage(9.9); err == nil {
		t.Error("expected ErrUnknownPState")
	}
	if _, err := GPUVoltage(9.9); err == nil {
		t.Error("expected ErrUnknownPState")
	}
	// Boost states are accepted by CPUVoltage.
	if _, err := CPUVoltage(BoostPStates[0].FreqGHz); err != nil {
		t.Errorf("boost voltage lookup: %v", err)
	}
}

func TestVoltagesMonotoneInFrequency(t *testing.T) {
	for i := 1; i < len(CPUPStates); i++ {
		if CPUPStates[i].Voltage <= CPUPStates[i-1].Voltage || CPUPStates[i].FreqGHz <= CPUPStates[i-1].FreqGHz {
			t.Fatal("CPU P-state table must be sorted ascending in f and V")
		}
	}
	for i := 1; i < len(GPUPStates); i++ {
		if GPUPStates[i].Voltage <= GPUPStates[i-1].Voltage || GPUPStates[i].FreqGHz <= GPUPStates[i-1].FreqGHz {
			t.Fatal("GPU P-state table must be sorted ascending in f and V")
		}
	}
}

func TestStepDownUpCPU(t *testing.T) {
	f, ok := StepDownCPU(1.9)
	if !ok || f != 1.4 {
		t.Errorf("StepDownCPU(1.9) = %v, %v", f, ok)
	}
	if _, ok := StepDownCPU(MinCPUFreq()); ok {
		t.Error("StepDownCPU at min should fail")
	}
	f, ok = StepUpCPU(1.4)
	if !ok || f != 1.9 {
		t.Errorf("StepUpCPU(1.4) = %v, %v", f, ok)
	}
	if _, ok := StepUpCPU(MaxCPUFreq()); ok {
		t.Error("StepUpCPU at max should fail")
	}
	// Boost steps down into regular top state.
	f, ok = StepDownCPU(BoostPStates[0].FreqGHz)
	if !ok || f != MaxCPUFreq() {
		t.Errorf("StepDownCPU(boost0) = %v, %v", f, ok)
	}
	f, ok = StepDownCPU(BoostPStates[1].FreqGHz)
	if !ok || f != BoostPStates[0].FreqGHz {
		t.Errorf("StepDownCPU(boost1) = %v, %v", f, ok)
	}
	if f, ok := StepDownCPU(2.22); ok || f != 2.22 {
		t.Error("StepDownCPU with unknown frequency should be a no-op")
	}
}

// TestStepDownUpGPU checks the GPU's one direction: GPU+FL only ever
// steps the GPU P-state down (rapl.Step), so there is no StepUpGPU.
func TestStepDownUpGPU(t *testing.T) {
	f, ok := StepDownGPU(0.649)
	if !ok || f != 0.311 {
		t.Errorf("StepDownGPU = %v, %v", f, ok)
	}
	if _, ok := StepDownGPU(MinGPUFreq()); ok {
		t.Error("StepDownGPU at min should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{CPUDevice, 2.4, 4, 0.311}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{CPUDevice, 2.5, 4, 0.311}, // unknown CPU freq
		{CPUDevice, 2.4, 0, 0.311}, // zero threads
		{CPUDevice, 2.4, 5, 0.311}, // too many threads
		{CPUDevice, 2.4, 4, 0.5},   // unknown GPU freq
		{GPUDevice, 2.4, 2, 0.819}, // GPU with 2 host threads
		{Device(3), 2.4, 1, 0.311}, // unknown device
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %v", i, c)
		}
	}
}

func TestConfigFeatures(t *testing.T) {
	c := Config{GPUDevice, 3.7, 1, 0.819}
	f := c.Features()
	if len(f) != len(FeatureNames()) {
		t.Fatal("feature/name length mismatch")
	}
	if f[0] != 3.7 || f[1] != 1 || f[2] != 0.819 {
		t.Errorf("features = %v", f)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestSpaceEnumeration(t *testing.T) {
	s := NewSpace()
	// 6 CPU P-states × 4 threads + 3 GPU P-states × 6 CPU P-states = 42.
	if s.Len() != 42 {
		t.Fatalf("space size = %d, want 42", s.Len())
	}
	seen := map[Config]bool{}
	for id, c := range s.Configs {
		if err := c.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", id, err)
		}
		if seen[c] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c] = true
		if s.IDOf(c) != id {
			t.Errorf("IDOf round trip failed for %v", c)
		}
		got, err := s.ByID(id)
		if err != nil || got != c {
			t.Errorf("ByID round trip failed for %d", id)
		}
	}
	if s.IDOf(Config{CPUDevice, 9, 1, 0.311}) != -1 {
		t.Error("IDOf unknown config should be -1")
	}
	if _, err := s.ByID(-1); err == nil {
		t.Error("ByID(-1) should fail")
	}
	if _, err := s.ByID(42); err == nil {
		t.Error("ByID(42) should fail")
	}
}

func TestSpaceWithBoost(t *testing.T) {
	s := NewSpaceWithBoost()
	if s.Len() != 42+len(BoostPStates)*NumCores {
		t.Fatalf("boost space size = %d", s.Len())
	}
}

func TestDeviceConfigs(t *testing.T) {
	s := NewSpace()
	cpu := s.DeviceConfigs(CPUDevice)
	gpu := s.DeviceConfigs(GPUDevice)
	if len(cpu) != 24 || len(gpu) != 18 {
		t.Fatalf("device partition = %d/%d, want 24/18", len(cpu), len(gpu))
	}
}

func TestSampleConfigs(t *testing.T) {
	// Table II: CPU 3.7 GHz / 4 threads / GPU 311 MHz;
	// GPU 819 MHz / 1 thread / CPU 3.7 GHz.
	c := SampleConfigCPU()
	if c.Device != CPUDevice || c.CPUFreqGHz != 3.7 || c.Threads != 4 || c.GPUFreqGHz != 0.311 {
		t.Errorf("CPU sample = %v", c)
	}
	g := SampleConfigGPU()
	if g.Device != GPUDevice || g.CPUFreqGHz != 3.7 || g.Threads != 1 || g.GPUFreqGHz != 0.819 {
		t.Errorf("GPU sample = %v", g)
	}
	s := NewSpace()
	if s.IDOf(c) < 0 || s.IDOf(g) < 0 {
		t.Error("sample configs must be members of the space")
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := testWorkload().Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	mutations := []func(*Workload){
		func(w *Workload) { w.FLOPs = 0 },
		func(w *Workload) { w.Bytes = -1 },
		func(w *Workload) { w.ParFrac = 1.5 },
		func(w *Workload) { w.VecFrac = -0.1 },
		func(w *Workload) { w.BranchFrac = 2 },
		func(w *Workload) { w.GPUAffinity = 0 },
		func(w *Workload) { w.GPUBytesFactor = 0 },
		func(w *Workload) { w.LaunchCycles = -5 },
		func(w *Workload) { w.L1MissRate = 1.2 },
		func(w *Workload) { w.L2MissRate = -0.2 },
		func(w *Workload) { w.TLBMissRate = 3 },
		func(w *Workload) { w.InstrPerFlop = 0 },
	}
	for i, mut := range mutations {
		w := testWorkload()
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunCPUBasics(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	e, err := m.Run(w, Config{CPUDevice, 2.4, 4, 0.311})
	if err != nil {
		t.Fatal(err)
	}
	if e.TimeSec <= 0 || math.IsNaN(e.TimeSec) {
		t.Fatalf("TimeSec = %v", e.TimeSec)
	}
	if e.CPUPowerW <= 0 || e.NBGPUPowerW <= 0 {
		t.Fatalf("powers = %v, %v", e.CPUPowerW, e.NBGPUPowerW)
	}
	if e.GPUUtil != 0 {
		t.Errorf("CPU run has GPUUtil = %v", e.GPUUtil)
	}
	if e.TotalPowerW() != e.CPUPowerW+e.NBGPUPowerW {
		t.Error("TotalPowerW mismatch")
	}
	if math.Abs(e.Perf()-1/e.TimeSec) > 1e-18 {
		t.Error("Perf mismatch")
	}
	if math.Abs(e.EnergyJ()-e.TotalPowerW()*e.TimeSec) > 1e-12 {
		t.Error("EnergyJ mismatch")
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	m := DefaultMachine()
	if _, err := m.Run(Workload{}, Config{CPUDevice, 2.4, 4, 0.311}); err == nil {
		t.Error("invalid workload accepted")
	}
	if _, err := m.Run(testWorkload(), Config{CPUDevice, 2.5, 4, 0.311}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCPUFreqSpeedsUpCompute(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	w.Bytes = 1e5 // compute-bound
	slow, _ := m.Run(w, Config{CPUDevice, 1.4, 4, 0.311})
	fast, _ := m.Run(w, Config{CPUDevice, 3.7, 4, 0.311})
	ratio := slow.TimeSec / fast.TimeSec
	if ratio < 2.2 || ratio > 2.9 {
		t.Errorf("compute-bound f-scaling ratio = %v, want ≈ 3.7/1.4", ratio)
	}
}

func TestMemoryBoundInsensitiveToFreq(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	w.FLOPs = 1e6
	w.Bytes = 5e8 // memory-bound
	slow, _ := m.Run(w, Config{CPUDevice, 1.4, 4, 0.311})
	fast, _ := m.Run(w, Config{CPUDevice, 3.7, 4, 0.311})
	ratio := slow.TimeSec / fast.TimeSec
	if ratio > 1.6 {
		t.Errorf("memory-bound f-scaling ratio = %v, want close to 1", ratio)
	}
}

func TestThreadScaling(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	w.Bytes = 1e5
	w.ParFrac = 0.99
	var prev float64 = math.Inf(1)
	for n := 1; n <= 4; n++ {
		e, err := m.Run(w, Config{CPUDevice, 2.4, n, 0.311})
		if err != nil {
			t.Fatal(err)
		}
		if e.TimeSec >= prev {
			t.Errorf("no speedup from %d threads: %v >= %v", n, e.TimeSec, prev)
		}
		prev = e.TimeSec
	}
}

func TestSerialKernelDoesNotScale(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	w.ParFrac = 0.05
	one, _ := m.Run(w, Config{CPUDevice, 2.4, 1, 0.311})
	four, _ := m.Run(w, Config{CPUDevice, 2.4, 4, 0.311})
	if one.TimeSec/four.TimeSec > 1.15 {
		t.Errorf("serial kernel sped up %vx with 4 threads", one.TimeSec/four.TimeSec)
	}
	// But it should cost more power with 4 active cores.
	if four.CPUPowerW <= one.CPUPowerW {
		t.Error("4 threads should draw more CPU power")
	}
}

func TestGPUFreqScaling(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	w.Bytes = 1e5 // compute-bound on GPU too
	slow, _ := m.Run(w, Config{GPUDevice, 3.7, 1, 0.311})
	fast, _ := m.Run(w, Config{GPUDevice, 3.7, 1, 0.819})
	if slow.TimeSec <= fast.TimeSec {
		// expected: higher GPU frequency is faster for compute-bound
		t.Errorf("GPU freq scaling inverted: %v <= %v", slow.TimeSec, fast.TimeSec)
	}
}

func TestGPULaunchOverheadSensitiveToCPUFreq(t *testing.T) {
	// Table I: GPU configurations at varying CPU frequency differ
	// because launch overhead runs on the CPU.
	m := DefaultMachine()
	w := testWorkload()
	w.LaunchCycles = 5e7 // launch-dominated
	w.FLOPs = 1e6
	w.Bytes = 1e5
	slow, _ := m.Run(w, Config{GPUDevice, 1.4, 1, 0.819})
	fast, _ := m.Run(w, Config{GPUDevice, 3.7, 1, 0.819})
	ratio := slow.TimeSec / fast.TimeSec
	if ratio < 1.5 {
		t.Errorf("launch-bound kernel insensitive to CPU freq: ratio %v", ratio)
	}
}

func TestGPUPowerScalesWithFreq(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	lo, _ := m.Run(w, Config{GPUDevice, 1.4, 1, 0.311})
	hi, _ := m.Run(w, Config{GPUDevice, 1.4, 1, 0.819})
	if hi.NBGPUPowerW <= lo.NBGPUPowerW {
		t.Errorf("GPU power not increasing with frequency: %v <= %v", hi.NBGPUPowerW, lo.NBGPUPowerW)
	}
}

func TestPowerMagnitudesPlausible(t *testing.T) {
	// The paper reports per-kernel package power between ~12 and ~55 W
	// across the whole space; the calibrated model must stay in that
	// ballpark for a generic kernel.
	m := DefaultMachine()
	w := testWorkload()
	s := NewSpace()
	for _, cfg := range s.Configs {
		e, err := m.Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p := e.TotalPowerW(); p < 5 || p > 70 {
			t.Errorf("config %v: package power %v W out of plausible range", cfg, p)
		}
	}
}

func TestMinCPUConfigIsLowestPower(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	s := NewSpace()
	minCfg := Config{CPUDevice, MinCPUFreq(), 1, MinGPUFreq()}
	eMin, _ := m.Run(w, minCfg)
	for _, cfg := range s.Configs {
		e, _ := m.Run(w, cfg)
		if e.TotalPowerW() < eMin.TotalPowerW()-1e-9 {
			t.Errorf("config %v draws less power (%v) than the minimum config (%v)",
				cfg, e.TotalPowerW(), eMin.TotalPowerW())
		}
	}
}

func TestRunNoisyDeterministicBySeed(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	cfg := Config{CPUDevice, 2.4, 2, 0.311}
	a, err := m.RunNoisy(w, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.RunNoisy(w, cfg, rand.New(rand.NewSource(5)))
	if a.TimeSec != b.TimeSec || a.CPUPowerW != b.CPUPowerW {
		t.Error("RunNoisy not reproducible for equal seeds")
	}
	c, _ := m.RunNoisy(w, cfg, rand.New(rand.NewSource(6)))
	if a.TimeSec == c.TimeSec {
		t.Error("RunNoisy identical across different seeds")
	}
}

func TestRunNoisyCloseToDeterministic(t *testing.T) {
	m := DefaultMachine()
	w := testWorkload()
	cfg := Config{CPUDevice, 2.4, 2, 0.311}
	base, _ := m.Run(w, cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		e, err := m.RunNoisy(w, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if r := e.TimeSec / base.TimeSec; r < 0.9 || r > 1.1 {
			t.Fatalf("noise too large: time ratio %v", r)
		}
	}
}

func TestThermalHeadroom(t *testing.T) {
	m := DefaultMachine()
	if !m.ThermalHeadroom(50, 100) {
		t.Error("50W under 100W TDP should have headroom")
	}
	if m.ThermalHeadroom(90, 100) {
		t.Error("90W under 100W TDP should not boost")
	}
}

func TestMachineString(t *testing.T) {
	if DefaultMachine().String() == "" {
		t.Error("empty String")
	}
}

func TestArithmeticIntensity(t *testing.T) {
	w := testWorkload()
	if ai := w.ArithmeticIntensity(); math.Abs(ai-4) > 1e-12 {
		t.Errorf("AI = %v, want 4", ai)
	}
}

func BenchmarkRunCPU(b *testing.B) {
	m := DefaultMachine()
	w := testWorkload()
	cfg := Config{CPUDevice, 2.4, 4, 0.311}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunGPU(b *testing.B) {
	m := DefaultMachine()
	w := testWorkload()
	cfg := Config{GPUDevice, 3.7, 1, 0.819}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
