// Package acpi models the P-state management layer of §IV-A:
// "Software-visible P-states are managed either by the OS through the
// Advanced Configuration and Power Interface (ACPI) specification or by
// the hardware." It exposes per-compute-unit P-state requests, enforces
// the Trinity voltage-plane rule — all CPU compute units share one
// voltage plane whose voltage is set by the fastest active CU — and
// realizes whole configurations for the runtime, which drives DVFS
// directly (the userspace policy: "we require direct control over CPU
// P-states"), so no governor policy is modelled.
package acpi

import (
	"errors"
	"fmt"
	"sync"

	"acsel/internal/apu"
	"acsel/internal/fault"
)

// NumCU is the number of CPU compute units (dual-core modules).
const NumCU = apu.NumCores / 2

// TransitionLatencySec is the cost of one P-state transition (voltage
// ramp + PLL relock); a few tens of microseconds on Trinity-class
// hardware.
const TransitionLatencySec = 50e-6

// Manager tracks per-CU P-state requests and resolves the shared
// voltage plane. It is safe for concurrent use (the paper's runtime
// adjusts P-states from the application thread while measurement runs
// elsewhere).
type Manager struct {
	mu        sync.Mutex
	requested [NumCU]int // index into apu.CPUPStates
	gpuState  int        // index into apu.GPUPStates
	// faults, when non-nil, injects transition failures
	// (fault.SitePState) into ApplyFor.
	faults *fault.Injector
	// failedApplies counts injected transition failures.
	failedApplies int
}

// NewManager starts at the lowest CPU and GPU P-states.
func NewManager() *Manager {
	return &Manager{}
}

// ErrBadCU is returned for out-of-range compute-unit indices.
var ErrBadCU = errors.New("acpi: compute unit index out of range")

// ErrBadPState is returned for out-of-range P-state indices.
var ErrBadPState = errors.New("acpi: P-state index out of range")

// ErrTransitionFailed is returned when an injected fault aborts a
// P-state transition before any state changed. The failure is
// transient: a retry (new attempt ordinal) may succeed, so callers
// should bound-retry rather than give up.
var ErrTransitionFailed = errors.New("acpi: P-state transition failed")

// SetFaultInjector wires a fault plan into the transition path. A nil
// injector restores clean behaviour.
func (m *Manager) SetFaultInjector(in *fault.Injector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = in
}

// RequestCPU asks for P-state index ps on compute unit cu.
func (m *Manager) RequestCPU(cu, ps int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cu < 0 || cu >= NumCU {
		return fmt.Errorf("%w: %d", ErrBadCU, cu)
	}
	if ps < 0 || ps >= len(apu.CPUPStates) {
		return fmt.Errorf("%w: CPU %d", ErrBadPState, ps)
	}
	m.requested[cu] = ps
	return nil
}

// RequestGPU sets the GPU P-state (its own plane, independent voltage).
func (m *Manager) RequestGPU(ps int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps < 0 || ps >= len(apu.GPUPStates) {
		return fmt.Errorf("%w: GPU %d", ErrBadPState, ps)
	}
	m.gpuState = ps
	return nil
}

// CUFrequency returns the granted frequency of a compute unit. All CUs
// are granted their requested frequency — frequency is per-CU on
// Trinity — but voltage is not (see PlaneVoltage).
func (m *Manager) CUFrequency(cu int) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cu < 0 || cu >= NumCU {
		return 0, fmt.Errorf("%w: %d", ErrBadCU, cu)
	}
	return apu.CPUPStates[m.requested[cu]].FreqGHz, nil
}

// PlaneVoltage resolves the shared CPU voltage plane: "since all
// compute units on the chip share a voltage plane, the voltage across
// all compute units is set by the CU with maximum frequency" (§IV-A).
func (m *Manager) PlaneVoltage() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	maxPS := 0
	for _, ps := range m.requested {
		if ps > maxPS {
			maxPS = ps
		}
	}
	return apu.CPUPStates[maxPS].Voltage
}

// EffectivePower returns the voltage-plane penalty factor of a CU: the
// ratio between the plane voltage squared and the CU's own P-state
// voltage squared. A CU parked at 1.4 GHz next to a CU at 3.7 GHz burns
// V(3.7)²/V(1.4)² times more dynamic power per cycle than it would on
// an independent plane — the reason the paper's schedulers run all
// active cores at one frequency.
func (m *Manager) EffectivePower(cu int) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cu < 0 || cu >= NumCU {
		return 0, fmt.Errorf("%w: %d", ErrBadCU, cu)
	}
	maxPS := 0
	for _, ps := range m.requested {
		if ps > maxPS {
			maxPS = ps
		}
	}
	own := apu.CPUPStates[m.requested[cu]].Voltage
	plane := apu.CPUPStates[maxPS].Voltage
	return (plane * plane) / (own * own), nil
}

// FailedApplies returns how many ApplyFor calls an injected fault
// aborted (counting each failed attempt).
func (m *Manager) FailedApplies() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failedApplies
}

// ApplyFor is Apply under a fault plan: the transition event is keyed
// by the caller's identity (kernel key) and an attempt ordinal, so a
// failed transition can be retried deterministically — the retry is a
// different event and may succeed. An injected PStateFail aborts the
// apply with ErrTransitionFailed before any state changes; other
// faults drawn at the site (PStateDelay) leave the apply unchanged.
func (m *Manager) ApplyFor(cfg apu.Config, key string, attempt int) error {
	m.mu.Lock()
	faults := m.faults.At(fault.SitePState, key, attempt)
	for _, f := range faults {
		if f.Kind == fault.PStateFail {
			m.failedApplies++
			m.mu.Unlock()
			return fmt.Errorf("%w: %s attempt %d", ErrTransitionFailed, key, attempt)
		}
	}
	m.mu.Unlock()
	return m.Apply(cfg)
}

// Apply configures the manager to realize an apu.Config: all CUs that
// host the configuration's threads at the config's CPU P-state, idle
// CUs at the lowest P-state, and the GPU at the config's GPU P-state.
func (m *Manager) Apply(cfg apu.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var cpuPS int = -1
	for i, p := range apu.CPUPStates {
		if apu.SameFreq(p.FreqGHz, cfg.CPUFreqGHz) {
			cpuPS = i
		}
	}
	if cpuPS < 0 {
		// Boost frequencies are outside ACPI's software-visible table.
		return fmt.Errorf("%w: %.3g GHz not software-visible", apu.ErrUnknownPState, cfg.CPUFreqGHz)
	}
	var gpuPS int = -1
	for i, p := range apu.GPUPStates {
		if apu.SameFreq(p.FreqGHz, cfg.GPUFreqGHz) {
			gpuPS = i
		}
	}
	if gpuPS < 0 {
		return fmt.Errorf("%w: GPU %.3g GHz", apu.ErrUnknownPState, cfg.GPUFreqGHz)
	}
	// Threads spread across modules first (cores 0,2 then 1,3), so the
	// number of active CUs is ceil(threads/2) for CPU configs and 1 for
	// the GPU host thread.
	activeCU := 1
	if cfg.Device == apu.CPUDevice {
		activeCU = (cfg.Threads + 1) / 2
	}
	for cu := 0; cu < NumCU; cu++ {
		want := 0 // idle CUs park at the lowest P-state
		if cu < activeCU {
			want = cpuPS
		}
		if err := m.RequestCPU(cu, want); err != nil {
			return err
		}
	}
	return m.RequestGPU(gpuPS)
}
