// Package power simulates the paper's power-measurement path: the
// on-chip system-management microcontroller (SMU) exposes real-time
// power estimates for two domains — the CPU cores, and the northbridge
// plus GPU — which the profiling library samples at 1 kHz and
// integrates over each kernel execution to obtain average power
// (§III-B, §IV-C). The same package provides the firmware-style energy
// accumulator the paper notes would remove sampling overhead on newer
// hardware.
package power

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"acsel/internal/fault"
)

// Domain identifies one of the two measured power planes.
type Domain int

const (
	// DomainCPU is the CPU-cores power plane.
	DomainCPU Domain = iota
	// DomainNBGPU is the northbridge + GPU power plane.
	DomainNBGPU
)

// String returns a short domain name.
func (d Domain) String() string {
	if d == DomainCPU {
		return "cpu"
	}
	return "nbgpu"
}

// Trace is an instantaneous two-domain power function of time (seconds
// since kernel start). The APU model produces constant traces per
// kernel; tests exercise time-varying ones.
type Trace func(t float64) (cpuW, nbgpuW float64)

// ConstantTrace returns a Trace with fixed per-domain power.
func ConstantTrace(cpuW, nbgpuW float64) Trace {
	return func(float64) (float64, float64) { return cpuW, nbgpuW }
}

// SMU models the system-management microcontroller's power estimator.
type SMU struct {
	// SampleHz is the sampling rate (the paper samples at 1 kHz).
	SampleHz float64
	// NoiseStd is the relative standard deviation of per-sample
	// estimation noise.
	NoiseStd float64
	// QuantumW is the estimator's reporting resolution in watts
	// (samples are rounded to multiples of it; 0 disables quantization).
	QuantumW float64
	// MaxPlausibleW is the physical ceiling of a believable package
	// reading; measurements beyond it return ErrImplausibleReading so
	// callers can quarantine them (0 disables the check).
	MaxPlausibleW float64
}

// DefaultMaxPlausibleW is DefaultSMU's plausibility ceiling, and the
// ceiling of the scheduler's sanity gate on limiter readings.
const DefaultMaxPlausibleW = 120

// DefaultSMU returns an SMU matching the paper's setup: 1 kHz sampling
// with a realistic estimator noise and 1/8 W quantization. The
// plausibility ceiling sits well above the machine's ~55 W peak but
// below any spiking sensor's output.
func DefaultSMU() *SMU {
	return &SMU{SampleHz: 1000, NoiseStd: 0.01, QuantumW: 0.125, MaxPlausibleW: DefaultMaxPlausibleW}
}

// Measurement is the integrated result of sampling one kernel
// execution.
type Measurement struct {
	DurationSec float64
	AvgCPUW     float64
	AvgNBGPUW   float64
	EnergyCPUJ  float64
	EnergyNBJ   float64
	Samples     int
}

// TotalAvgW is the package average power.
func (m Measurement) TotalAvgW() float64 { return m.AvgCPUW + m.AvgNBGPUW }

// TotalEnergyJ is the package energy.
func (m Measurement) TotalEnergyJ() float64 { return m.EnergyCPUJ + m.EnergyNBJ }

// ErrBadDuration is returned for non-positive measurement windows.
var ErrBadDuration = errors.New("power: non-positive duration")

// ErrSensorDropout is returned when the SMU produces no reading at all
// — the sensor is dead for this measurement. Distinguish it from
// ErrImplausibleReading: dropout means "no data", implausible means
// "data you must not trust".
var ErrSensorDropout = errors.New("power: SMU sensor dropout")

// ErrImplausibleReading is returned when a reading violates physical
// bounds (negative, or beyond MaxPlausibleW). The measurement is
// still returned alongside the error so callers can log what the
// sensor claimed before quarantining it.
var ErrImplausibleReading = errors.New("power: implausible power reading")

// Measure samples the trace at SampleHz over [0, duration] and
// integrates with the trapezoid rule. At least two samples (start and
// end) are always taken, so sub-millisecond kernels still measure.
// Sampling noise is drawn from rng; passing a seeded rng makes the
// measurement reproducible. Readings beyond MaxPlausibleW return the
// measurement together with ErrImplausibleReading.
func (s *SMU) Measure(trace Trace, duration float64, rng *rand.Rand) (Measurement, error) {
	return s.MeasureFaulty(trace, duration, rng, nil)
}

// MeasureFaulty is Measure under injected sensor faults: the resolved
// faults of one fault-plan event (fault.SiteSMU) distort or destroy
// the integrated reading. With no faults it is exactly Measure, so
// clean runs are byte-identical whether or not injection is wired.
func (s *SMU) MeasureFaulty(trace Trace, duration float64, rng *rand.Rand, faults []fault.Fault) (Measurement, error) {
	m, err := s.measure(trace, duration, rng)
	if err != nil {
		return m, err
	}
	if len(faults) > 0 {
		total := m.TotalAvgW()
		distorted, err := DistortReading(total, faults)
		if err != nil {
			return Measurement{DurationSec: m.DurationSec, Samples: m.Samples}, err
		}
		if total > 0 {
			scale := distorted / total
			m.AvgCPUW *= scale
			m.AvgNBGPUW *= scale
			m.EnergyCPUJ *= scale
			m.EnergyNBJ *= scale
		} else if distorted > 0 {
			// A stuck sensor still reports on an idle trace: split the
			// latched value like the machine's typical CPU:NB ratio.
			m.AvgCPUW = distorted * 0.6
			m.AvgNBGPUW = distorted * 0.4
			m.EnergyCPUJ = m.AvgCPUW * duration
			m.EnergyNBJ = m.AvgNBGPUW * duration
		}
	}
	if s.MaxPlausibleW > 0 && (m.TotalAvgW() > s.MaxPlausibleW || m.TotalAvgW() < 0) {
		return m, fmt.Errorf("%w: %.1f W", ErrImplausibleReading, m.TotalAvgW())
	}
	return m, nil
}

// DistortReading applies one event's sensor faults to a scalar package
// power reading — the same transfer function MeasureFaulty applies to
// integrated measurements, reusable wherever a limiter consults a
// single power number. Dropout returns ErrSensorDropout.
func DistortReading(w float64, faults []fault.Fault) (float64, error) {
	for _, f := range faults {
		switch f.Kind {
		case fault.SensorDropout:
			return 0, ErrSensorDropout
		case fault.SensorStuck:
			w = f.Magnitude
		case fault.SensorSpike:
			w *= f.Magnitude
		case fault.SensorDrift:
			w *= 1 - f.Magnitude
		}
	}
	return w, nil
}

func (s *SMU) measure(trace Trace, duration float64, rng *rand.Rand) (Measurement, error) {
	// NaN compares false against every bound and +Inf would overflow
	// the sample count, so both are as unusable as a negative window.
	if math.IsNaN(duration) || math.IsInf(duration, 0) || duration <= 0 {
		return Measurement{}, ErrBadDuration
	}
	n := int(duration*s.SampleHz) + 1
	if n < 2 {
		n = 2
	}
	dt := duration / float64(n-1)
	var eCPU, eNB float64
	var prevCPU, prevNB float64
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		cpu, nb := trace(t)
		cpu = s.distort(cpu, rng)
		nb = s.distort(nb, rng)
		if i > 0 {
			eCPU += (cpu + prevCPU) / 2 * dt
			eNB += (nb + prevNB) / 2 * dt
		}
		prevCPU, prevNB = cpu, nb
	}
	return Measurement{
		DurationSec: duration,
		AvgCPUW:     eCPU / duration,
		AvgNBGPUW:   eNB / duration,
		EnergyCPUJ:  eCPU,
		EnergyNBJ:   eNB,
		Samples:     n,
	}, nil
}

func (s *SMU) distort(w float64, rng *rand.Rand) float64 {
	if rng != nil && s.NoiseStd > 0 {
		w *= 1 + rng.NormFloat64()*s.NoiseStd
	}
	if s.QuantumW > 0 {
		w = math.Round(w/s.QuantumW) * s.QuantumW
	}
	if w < 0 {
		w = 0
	}
	return w
}

// SamplingOverheadFrac estimates the fraction of kernel runtime spent
// servicing sampling interrupts, given a per-sample service cost. The
// paper bounds this overhead below 10%; tests assert the model obeys
// the same bound for realistic kernel durations.
func (s *SMU) SamplingOverheadFrac(duration, perSampleCostSec float64) float64 {
	if duration <= 0 {
		return 0
	}
	n := float64(int(duration*s.SampleHz) + 1)
	return n * perSampleCostSec / duration
}

// Accumulator is a monotonically increasing per-domain energy counter,
// the firmware-based alternative to sampling (§IV-C). Reading it twice
// around a kernel yields exact energy without sampling overhead.
type Accumulator struct {
	energyJ [2]float64
}

// Add accrues energy into a domain. Negative increments are ignored, as
// hardware accumulators cannot decrease.
func (a *Accumulator) Add(d Domain, joules float64) {
	if joules > 0 {
		a.energyJ[d] += joules
	}
}

// Read returns the current counter value for a domain.
func (a *Accumulator) Read(d Domain) float64 { return a.energyJ[d] }

// Window measures average power between two accumulator snapshots.
type Window struct {
	startCPU, startNB float64
	startTime         float64
}

// Begin snapshots the accumulator at time t (seconds).
func (a *Accumulator) Begin(t float64) Window {
	return Window{startCPU: a.energyJ[DomainCPU], startNB: a.energyJ[DomainNBGPU], startTime: t}
}

// End computes the measurement between the snapshot and time t.
func (a *Accumulator) End(w Window, t float64) (Measurement, error) {
	dt := t - w.startTime
	if dt <= 0 {
		return Measurement{}, ErrBadDuration
	}
	eCPU := a.energyJ[DomainCPU] - w.startCPU
	eNB := a.energyJ[DomainNBGPU] - w.startNB
	return Measurement{
		DurationSec: dt,
		AvgCPUW:     eCPU / dt,
		AvgNBGPUW:   eNB / dt,
		EnergyCPUJ:  eCPU,
		EnergyNBJ:   eNB,
		Samples:     2,
	}, nil
}

// Phase is one segment of a phased power trace.
type Phase struct {
	DurationSec float64
	CPUW        float64
	NBGPUW      float64
}

// PhasedTrace builds a Trace from consecutive phases — e.g. a GPU
// kernel's launch interval (host driver active, GPU idle) followed by
// its execution interval (GPU drawing full power). Time beyond the last
// phase holds the final phase's power.
func PhasedTrace(phases []Phase) Trace {
	return func(t float64) (float64, float64) {
		if len(phases) == 0 {
			return 0, 0
		}
		acc := 0.0
		for _, p := range phases {
			acc += p.DurationSec
			if t < acc {
				return p.CPUW, p.NBGPUW
			}
		}
		last := phases[len(phases)-1]
		return last.CPUW, last.NBGPUW
	}
}
