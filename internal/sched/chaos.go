// Chaos-mode decisions: the same policies and the same limiter loop as
// sched.Runner.Decide, with the frequency limiter reading power through
// a sensor that may lie. The naive posture models the state of the
// practice — a limiter that takes every reading at face value, so a
// dropout (0 W) silently convinces it the cap is met — while the
// hardened posture adds the sanity gate, bounded re-reads and a
// conservative floor, mirroring the online runtime's degradation
// behaviour.

package sched

import (
	"errors"
	"fmt"

	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/power"
)

// Readings exposes what the power sensor reports for a configuration —
// possibly distorted by injected faults. step is the limiter's
// iteration ordinal and attempt the re-read ordinal within one step;
// together with the configuration they key the deterministic fault
// event, so a retry is a fresh decision that may succeed.
type Readings interface {
	ReadPowerW(configID, step, attempt int) (float64, error)
}

// TrueReadings is a perfect sensor over the truth.
type TrueReadings struct{ Truth Truth }

// ReadPowerW implements Readings.
func (t TrueReadings) ReadPowerW(id, _, _ int) (float64, error) { return t.Truth.PowerAt(id), nil }

// FaultyReadings distorts true power through a fault plan, one event
// per (key, config, step, attempt).
type FaultyReadings struct {
	Truth  Truth
	Faults *fault.Injector
	// Key identifies the consumer (kernel, cap, method) so distinct
	// decision processes draw independent deterministic fault streams.
	Key string
}

// ReadPowerW implements Readings: the true power passed through the
// event's sensor faults. Dropout surfaces as power.ErrSensorDropout.
func (fr FaultyReadings) ReadPowerW(id, step, attempt int) (float64, error) {
	w := fr.Truth.PowerAt(id)
	key := fault.EventKey(fr.Key, id)
	if attempt > 0 {
		key = fmt.Sprintf("%s#r%d", key, attempt)
	}
	return power.DistortReading(w, fr.Faults.At(fault.SiteSMU, key, step))
}

// Hardened-controller tuning, mirroring the runtime's defaults.
const (
	// hardenedReadRetries bounds re-reads after a dropout.
	hardenedReadRetries = 2
	// hardenedMaxDistrust is how many untrusted limiter readings a
	// kernel tolerates before falling to its conservative floor. Only
	// the hardened reader reports untrusted readings.
	hardenedMaxDistrust = 3
	// minPlausibleLoadW is the gate's floor: a package running a kernel
	// cannot draw less than its idle power (~12 W on this machine), so
	// a lower claim — a sensor stuck at a stale low value, or a dropout
	// read as zero — is as implausible as a spike.
	minPlausibleLoadW = 10
)

// DecideNaive runs one policy with the limiter reading power through
// readings and believing every value it sees: dropouts read as 0 W
// (the sensor returned nothing, the register reads zero), spikes and
// stuck values are taken at face value. Methods that never consult the
// sensor (Oracle, Model) are unaffected by construction.
func (r *Runner) DecideNaive(m Method, truth Truth, readings Readings, preds *core.Selector, capW float64) (Decision, error) {
	return r.decide(m, truth, preds, capW, naive{readings}, true)
}

// naive reads its sensor once per step and trusts every reading.
type naive struct{ readings Readings }

func (n naive) read(id, step int) (float64, bool) {
	w, err := n.readings.ReadPowerW(id, step, 0)
	if err != nil {
		return 0, true // a dead sensor reads zero, and zero is under any cap
	}
	return w, true
}

// DecideHardened runs one policy with the robust controller: every
// limiter reading goes through trustedRead (sanity gate, re-reads,
// redundant confirmation), any untrusted reading is treated as
// fail-safe "assume over cap" (step down rather than stop), and after
// hardenedMaxDistrust untrusted readings the controller abandons
// feedback and falls to the method's conservative floor — the bottom
// of its frequency line, or the model's minimum predicted-power
// configuration. GPU+FL's raise-CPU-into-headroom phase is always
// skipped, so only the step-down line runs.
func (r *Runner) DecideHardened(m Method, truth Truth, readings Readings, preds *core.Selector, capW float64) (Decision, error) {
	return r.decide(m, truth, preds, capW, hardened{readings}, false)
}

// hardened trusts only the readings trustedRead confirms.
type hardened struct{ readings Readings }

func (h hardened) read(id, step int) (float64, bool) { return trustedRead(h.readings, id, step) }

// readAgreeFrac is the maximum relative disagreement between two
// redundant reads that still counts as confirmation.
const readAgreeFrac = 0.25

// trustedRead reads a configuration's power through the sanity gate
// with redundant confirmation: readings are re-taken (each re-read a
// fresh deterministic fault event) until two plausible readings agree
// within readAgreeFrac, whose mean is returned. Redundancy is what
// catches the faults the plausibility gate cannot — a sensor stuck at
// a believable wattage lies consistently only while its fault fires,
// so a disagreeing second read unmasks it. ok=false means no
// confirmed reading was obtained within the retry budget.
func trustedRead(readings Readings, id, step int) (float64, bool) {
	var got []float64
	for attempt := 0; attempt <= hardenedReadRetries; attempt++ {
		w, err := readings.ReadPowerW(id, step, attempt)
		if err != nil {
			// Dropout: no data this attempt; other errors are equally
			// unusable here.
			if !errors.Is(err, power.ErrSensorDropout) {
				return 0, false
			}
			continue
		}
		if w < minPlausibleLoadW || w > power.DefaultMaxPlausibleW {
			continue // implausible: quarantine and re-read
		}
		for _, prev := range got {
			if readsAgree(prev, w) {
				return (prev + w) / 2, true
			}
		}
		got = append(got, w)
	}
	return 0, false
}

func readsAgree(a, b float64) bool {
	hi := a
	if b > hi {
		hi = b
	}
	if hi <= 0 {
		return true // two zero-watt readings agree (an idle trace)
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d/hi <= readAgreeFrac
}
