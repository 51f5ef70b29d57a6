package acpi

import (
	"sync"
	"testing"

	"acsel/internal/apu"
)

// gpuFreq reads the granted GPU frequency.
func gpuFreq(m *Manager) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return apu.GPUPStates[m.gpuState].FreqGHz
}

func TestNewManagerDefaults(t *testing.T) {
	m := NewManager()
	for cu := 0; cu < NumCU; cu++ {
		f, err := m.CUFrequency(cu)
		if err != nil {
			t.Fatal(err)
		}
		if f != apu.MinCPUFreq() {
			t.Errorf("CU %d starts at %v, want min", cu, f)
		}
	}
	if gpuFreq(m) != apu.MinGPUFreq() {
		t.Error("GPU should start at min")
	}
}

func TestRequestCPUAndPlaneVoltage(t *testing.T) {
	m := NewManager()
	if err := m.RequestCPU(0, len(apu.CPUPStates)-1); err != nil {
		t.Fatal(err)
	}
	// CU 0 fast, CU 1 slow: plane voltage follows the fastest CU.
	if v := m.PlaneVoltage(); v != apu.CPUPStates[len(apu.CPUPStates)-1].Voltage {
		t.Errorf("plane voltage = %v", v)
	}
	f0, _ := m.CUFrequency(0)
	f1, _ := m.CUFrequency(1)
	if f0 != apu.MaxCPUFreq() || f1 != apu.MinCPUFreq() {
		t.Errorf("frequencies = %v, %v", f0, f1)
	}
}

func TestEffectivePowerPenalty(t *testing.T) {
	m := NewManager()
	if err := m.RequestCPU(0, len(apu.CPUPStates)-1); err != nil {
		t.Fatal(err)
	}
	// The slow CU pays the fast CU's voltage: penalty > 1.
	pen, err := m.EffectivePower(1)
	if err != nil {
		t.Fatal(err)
	}
	vMax := apu.CPUPStates[len(apu.CPUPStates)-1].Voltage
	vMin := apu.CPUPStates[0].Voltage
	want := vMax * vMax / (vMin * vMin)
	if pen != want {
		t.Errorf("penalty = %v, want %v", pen, want)
	}
	// The fast CU pays no penalty.
	pen0, _ := m.EffectivePower(0)
	if pen0 != 1 {
		t.Errorf("fast CU penalty = %v", pen0)
	}
	if _, err := m.EffectivePower(-1); err == nil {
		t.Error("bad CU accepted")
	}
}

func TestRequestValidation(t *testing.T) {
	m := NewManager()
	if err := m.RequestCPU(-1, 0); err == nil {
		t.Error("negative CU accepted")
	}
	if err := m.RequestCPU(NumCU, 0); err == nil {
		t.Error("out-of-range CU accepted")
	}
	if err := m.RequestCPU(0, len(apu.CPUPStates)); err == nil {
		t.Error("out-of-range P-state accepted")
	}
	if err := m.RequestGPU(-1); err == nil {
		t.Error("negative GPU P-state accepted")
	}
	if err := m.RequestGPU(len(apu.GPUPStates)); err == nil {
		t.Error("out-of-range GPU P-state accepted")
	}
	if _, err := m.CUFrequency(NumCU); err == nil {
		t.Error("out-of-range CU frequency accepted")
	}
}

func TestApplyCPUConfig(t *testing.T) {
	m := NewManager()
	cfg := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: 2.8, Threads: 3, GPUFreqGHz: 0.311}
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	// 3 threads → 2 active CUs at 2.8 GHz.
	f0, _ := m.CUFrequency(0)
	f1, _ := m.CUFrequency(1)
	if f0 != 2.8 || f1 != 2.8 {
		t.Errorf("active CUs at %v, %v", f0, f1)
	}
	if f := gpuFreq(m); f != 0.311 {
		t.Errorf("GPU at %v", f)
	}
}

func TestApplyOneThreadParksSecondCU(t *testing.T) {
	m := NewManager()
	cfg := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: 3.7, Threads: 1, GPUFreqGHz: 0.311}
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	f1, _ := m.CUFrequency(1)
	if f1 != apu.MinCPUFreq() {
		t.Errorf("idle CU at %v, want parked", f1)
	}
	// But it still pays the plane voltage of the active CU.
	pen, _ := m.EffectivePower(1)
	if pen <= 1 {
		t.Errorf("idle CU penalty = %v, want > 1", pen)
	}
}

func TestApplyGPUConfig(t *testing.T) {
	m := NewManager()
	cfg := apu.Config{Device: apu.GPUDevice, CPUFreqGHz: 1.9, Threads: 1, GPUFreqGHz: 0.819}
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	f0, _ := m.CUFrequency(0)
	if f0 != 1.9 {
		t.Errorf("host CU at %v", f0)
	}
	if f := gpuFreq(m); f != 0.819 {
		t.Errorf("GPU at %v", f)
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	m := NewManager()
	if err := m.Apply(apu.Config{Device: apu.CPUDevice, CPUFreqGHz: 9, Threads: 1, GPUFreqGHz: 0.311}); err == nil {
		t.Error("invalid config accepted")
	}
	boost := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: apu.BoostPStates[0].FreqGHz, Threads: 1, GPUFreqGHz: 0.311}
	if err := m.Apply(boost); err == nil {
		t.Error("boost frequency should not be software-visible through ACPI")
	}
}

func TestConcurrentRequestsSafe(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = m.RequestCPU(i%NumCU, j%len(apu.CPUPStates))
				_ = m.PlaneVoltage()
				_, _ = m.EffectivePower(i % NumCU)
			}
		}(i)
	}
	wg.Wait()
	// Plane voltage must still be a valid table entry.
	v := m.PlaneVoltage()
	ok := false
	for _, p := range apu.CPUPStates {
		if p.Voltage == v {
			ok = true
		}
	}
	if !ok {
		t.Errorf("plane voltage %v not in table", v)
	}
}

func BenchmarkApply(b *testing.B) {
	m := NewManager()
	cfgs := []apu.Config{
		{Device: apu.CPUDevice, CPUFreqGHz: 2.4, Threads: 4, GPUFreqGHz: 0.311},
		{Device: apu.GPUDevice, CPUFreqGHz: 3.7, Threads: 1, GPUFreqGHz: 0.819},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Apply(cfgs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
