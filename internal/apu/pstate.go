// Package apu models the AMD Trinity A10-5800K heterogeneous processor
// used as the paper's test system (§IV-A): two dual-core Piledriver
// modules (compute units) sharing a front-end, FPU, and L2 per module;
// a 384-core Radeon GPU on a separate power plane; and a shared memory
// controller. The package provides the software-visible knobs the paper
// schedules over — CPU P-states, CPU thread count, GPU P-states, and
// device selection — plus an analytic time/power model that stands in
// for the real hardware (see DESIGN.md, substitution table).
package apu

import (
	"errors"
	"fmt"

	"acsel/internal/stats"
)

// Device selects which processor executes a kernel.
type Device int

const (
	// CPUDevice runs the OpenMP implementation on the Piledriver cores.
	CPUDevice Device = iota
	// GPUDevice runs the OpenCL implementation on the Radeon GPU with a
	// single host thread driving the runtime.
	GPUDevice
)

// String returns "CPU" or "GPU".
func (d Device) String() string {
	switch d {
	case CPUDevice:
		return "CPU"
	case GPUDevice:
		return "GPU"
	}
	return fmt.Sprintf("Device(%d)", int(d))
}

// PState is one DVFS operating point: a frequency and the minimum
// voltage that sustains it.
type PState struct {
	FreqGHz float64
	Voltage float64
}

// CPUPStates are the six software-visible CPU P-states of the
// A10-5800K (§IV-A: 1.4–3.7 GHz). Voltages follow the typical
// Piledriver V/f curve shape.
var CPUPStates = []PState{
	{1.4, 0.850},
	{1.9, 0.925},
	{2.4, 1.000},
	{2.8, 1.075},
	{3.3, 1.175},
	{3.7, 1.300},
}

// BoostPStates are opportunistic-overclocking states (paper §VI,
// future work): available only when thermal/power headroom exists.
var BoostPStates = []PState{
	{4.0, 1.375},
	{4.2, 1.425},
}

// GPUPStates are the three effective GPU P-states the paper considers
// (§IV-A: 311, 649, and 819 MHz). Frequencies are stored in GHz.
var GPUPStates = []PState{
	{0.311, 0.825},
	{0.649, 0.950},
	{0.819, 1.050},
}

// ErrUnknownPState is returned when a frequency does not match any
// P-state in the relevant table.
var ErrUnknownPState = errors.New("apu: frequency does not match a P-state")

// SameFreq reports whether two frequencies denote the same P-state.
// Table lookups tolerate rounding error so a frequency that went
// through arithmetic (unit conversion, serialization) still matches
// its table entry instead of silently missing it.
func SameFreq(a, b float64) bool { return stats.AlmostEqual(a, b) }

// CPUVoltage returns the voltage for a CPU frequency (including boost
// states). The CPU cores share a voltage plane, so with mixed per-CU
// P-states the plane voltage is the maximum across active CUs; this
// package runs all active cores at one P-state, so the lookup is direct.
func CPUVoltage(freqGHz float64) (float64, error) {
	for _, p := range CPUPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			return p.Voltage, nil
		}
	}
	for _, p := range BoostPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			return p.Voltage, nil
		}
	}
	return 0, fmt.Errorf("%w: CPU %.3g GHz", ErrUnknownPState, freqGHz)
}

// GPUVoltage returns the voltage for a GPU frequency.
func GPUVoltage(freqGHz float64) (float64, error) {
	for _, p := range GPUPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			return p.Voltage, nil
		}
	}
	return 0, fmt.Errorf("%w: GPU %.3g GHz", ErrUnknownPState, freqGHz)
}

// MinCPUFreq returns the lowest CPU P-state frequency.
func MinCPUFreq() float64 { return CPUPStates[0].FreqGHz }

// MaxCPUFreq returns the highest non-boost CPU P-state frequency.
func MaxCPUFreq() float64 { return CPUPStates[len(CPUPStates)-1].FreqGHz }

// MinGPUFreq returns the lowest GPU P-state frequency.
func MinGPUFreq() float64 { return GPUPStates[0].FreqGHz }

// MaxGPUFreq returns the highest GPU P-state frequency.
func MaxGPUFreq() float64 { return GPUPStates[len(GPUPStates)-1].FreqGHz }

// StepDownCPU returns the next lower CPU P-state frequency, with ok
// false when already at the minimum. Used by the frequency limiter.
func StepDownCPU(freqGHz float64) (float64, bool) {
	for i, p := range CPUPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			if i == 0 {
				return freqGHz, false
			}
			return CPUPStates[i-1].FreqGHz, true
		}
	}
	// Boost states step down into the top regular state.
	for i, p := range BoostPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			if i == 0 {
				return MaxCPUFreq(), true
			}
			return BoostPStates[i-1].FreqGHz, true
		}
	}
	return freqGHz, false
}

// StepUpCPU returns the next higher regular CPU P-state frequency, with
// ok false when already at the maximum (boost states are only entered
// via TryBoost).
func StepUpCPU(freqGHz float64) (float64, bool) {
	for i, p := range CPUPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			if i == len(CPUPStates)-1 {
				return freqGHz, false
			}
			return CPUPStates[i+1].FreqGHz, true
		}
	}
	return freqGHz, false
}

// StepDownGPU returns the next lower GPU P-state frequency, with ok
// false at the minimum.
func StepDownGPU(freqGHz float64) (float64, bool) {
	for i, p := range GPUPStates {
		if SameFreq(p.FreqGHz, freqGHz) {
			if i == 0 {
				return freqGHz, false
			}
			return GPUPStates[i-1].FreqGHz, true
		}
	}
	return freqGHz, false
}
