package sched

import (
	"math"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/power"
)

// stubReadings scripts the sensor: the value/err at (step, attempt),
// falling back to truthW.
type stubReadings struct {
	truthW float64
	at     map[[2]int]stubRead
}

type stubRead struct {
	w   float64
	err error
}

func (s stubReadings) ReadPowerW(_, step, attempt int) (float64, error) {
	if r, ok := s.at[[2]int{step, attempt}]; ok {
		return r.w, r.err
	}
	return s.truthW, nil
}

func TestTrueReadingsPassThrough(t *testing.T) {
	space, _, profs := setup(t)
	truth := ProfileTruth{Profile: profs[0]}
	tr := TrueReadings{Truth: truth}
	for id := 0; id < space.Len(); id += 7 {
		w, err := tr.ReadPowerW(id, 3, 1)
		if err != nil || w != truth.PowerAt(id) { //lint:ignore floatcmp pass-through must be exact
			t.Fatalf("config %d: %v %v", id, w, err)
		}
	}
}

func TestFaultyReadingsCleanInjectorIsExact(t *testing.T) {
	_, _, profs := setup(t)
	truth := ProfileTruth{Profile: profs[1]}
	fr := FaultyReadings{Truth: truth, Faults: nil, Key: "k"}
	w, err := fr.ReadPowerW(5, 0, 0)
	if err != nil || w != truth.PowerAt(5) { //lint:ignore floatcmp nil injector must not perturb the reading
		t.Fatalf("clean faulty reading: %v %v", w, err)
	}
}

func TestFaultyReadingsDeterministic(t *testing.T) {
	_, _, profs := setup(t)
	truth := ProfileTruth{Profile: profs[2]}
	sc, ok := fault.ScenarioByName("sensor-dropout")
	if !ok {
		t.Fatal("missing scenario")
	}
	a := FaultyReadings{Truth: truth, Faults: fault.NewInjector(sc, 9), Key: "x"}
	b := FaultyReadings{Truth: truth, Faults: fault.NewInjector(sc, 9), Key: "x"}
	sawDropout := false
	for step := 0; step < 60; step++ {
		wa, ea := a.ReadPowerW(3, step, 0)
		wb, eb := b.ReadPowerW(3, step, 0)
		if wa != wb || (ea == nil) != (eb == nil) { //lint:ignore floatcmp replay must be bit-identical
			t.Fatalf("step %d: %v/%v vs %v/%v", step, wa, ea, wb, eb)
		}
		if ea != nil {
			sawDropout = true
		}
	}
	if !sawDropout {
		t.Error("20% dropout never fired in 60 reads")
	}
}

func TestTrustedReadConfirmsWithRedundancy(t *testing.T) {
	// Healthy sensor: first two reads agree, mean returned.
	w, ok := trustedRead(stubReadings{truthW: 30}, 0, 0)
	if !ok || math.Abs(w-30) > 1e-12 {
		t.Fatalf("healthy read: %v %v", w, ok)
	}
	// Stuck first read (plausible band excluded: 9 W is below the load
	// floor) — the re-reads confirm the true value.
	s := stubReadings{truthW: 30, at: map[[2]int]stubRead{{0, 0}: {w: 9}}}
	if w, ok := trustedRead(s, 0, 0); !ok || math.Abs(w-30) > 1e-12 {
		t.Fatalf("stuck-then-clean: %v %v", w, ok)
	}
	// Spike first read: quarantined by the ceiling, re-reads confirm.
	s = stubReadings{truthW: 30, at: map[[2]int]stubRead{{0, 0}: {w: 240}}}
	if w, ok := trustedRead(s, 0, 0); !ok || math.Abs(w-30) > 1e-12 {
		t.Fatalf("spike-then-clean: %v %v", w, ok)
	}
	// One dropout, then two agreeing reads.
	s = stubReadings{truthW: 30, at: map[[2]int]stubRead{{0, 0}: {err: power.ErrSensorDropout}}}
	if w, ok := trustedRead(s, 0, 0); !ok || math.Abs(w-30) > 1e-12 {
		t.Fatalf("dropout-then-clean: %v %v", w, ok)
	}
	// All reads dead: no confirmation.
	s = stubReadings{at: map[[2]int]stubRead{
		{0, 0}: {err: power.ErrSensorDropout},
		{0, 1}: {err: power.ErrSensorDropout},
		{0, 2}: {err: power.ErrSensorDropout},
	}}
	if _, ok := trustedRead(s, 0, 0); ok {
		t.Fatal("three dropouts confirmed a reading")
	}
	// Three wildly disagreeing plausible reads: no pair confirms.
	s = stubReadings{at: map[[2]int]stubRead{
		{0, 0}: {w: 20},
		{0, 1}: {w: 50},
		{0, 2}: {w: 110},
	}}
	if _, ok := trustedRead(s, 0, 0); ok {
		t.Fatal("disagreeing reads confirmed")
	}
}

func TestReadsAgree(t *testing.T) {
	if !readsAgree(30, 30) || !readsAgree(30, 36) {
		t.Error("close reads should agree")
	}
	if readsAgree(9, 40) || readsAgree(40, 9) {
		t.Error("far reads should disagree")
	}
}

func TestNaiveMatchesCleanDecisionsWithPerfectSensor(t *testing.T) {
	// With a truthful sensor the naive variants must reproduce Decide
	// exactly, FLSteps included — the chaos path adds no behaviour of
	// its own on clean hardware.
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	for _, kp := range profs[:10] {
		truth := ProfileTruth{Profile: kp}
		preds := predsOf(t, model, kp)
		tr := TrueReadings{Truth: truth}
		for _, capW := range []float64{15, 22, 30, 45} {
			for _, m := range Methods() {
				want, err := r.Decide(m, truth, preds, capW)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.DecideNaive(m, truth, tr, preds, capW)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %v cap %v: naive %+v != clean %+v", kp.KernelID, m, capW, got, want)
				}
			}
		}
	}
}

func TestHardenedMatchesCleanConfigWithPerfectSensor(t *testing.T) {
	// The hardened controller takes redundant reads, so FLSteps may
	// match or not — but the chosen configuration and its true
	// behaviour must be identical on clean hardware.
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	for _, kp := range profs[:10] {
		truth := ProfileTruth{Profile: kp}
		preds := predsOf(t, model, kp)
		tr := TrueReadings{Truth: truth}
		for _, capW := range []float64{15, 22, 30, 45} {
			for _, m := range Methods() {
				want, err := r.Decide(m, truth, preds, capW)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.DecideHardened(m, truth, tr, preds, capW)
				if err != nil {
					t.Fatal(err)
				}
				if m == MethodGPUFL {
					// The hardened GPU limiter deliberately skips the
					// raise-CPU phase; it may land on a lower-power config.
					if got.TruePower > want.TruePower+capSlack {
						t.Fatalf("%s GPU+FL cap %v: hardened drew more power (%v) than clean (%v)",
							kp.KernelID, capW, got.TruePower, want.TruePower)
					}
					continue
				}
				if got.ConfigID != want.ConfigID {
					t.Fatalf("%s %v cap %v: hardened config %d != clean %d",
						kp.KernelID, m, capW, got.ConfigID, want.ConfigID)
				}
			}
		}
	}
}

func TestNaiveDropoutCausesSilentViolation(t *testing.T) {
	// The failure mode that motivates the hardening: a dead sensor
	// reads 0 W, the naive limiter believes it and stops at maximum
	// frequency regardless of the cap.
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{Profile: profs[0]}
	d, err := r.DecideNaive(MethodCPUFL, truth, deadReadings{}, nil, 15)
	if err != nil {
		t.Fatal(err)
	}
	if d.FLSteps != 0 {
		t.Errorf("naive limiter stepped %d times on a dead sensor", d.FLSteps)
	}
	if d.Config.CPUFreqGHz != apu.MaxCPUFreq() { //lint:ignore floatcmp discrete frequency line
		t.Errorf("naive limiter left max frequency: %v", d.Config)
	}
}

func TestHardenedDeadSensorFallsToFloor(t *testing.T) {
	// A permanently dead sensor must drive the hardened limiter to its
	// conservative floor, never leave it at maximum frequency.
	space, _, profs := setup(t)
	r := &Runner{Space: space}
	truth := ProfileTruth{Profile: profs[0]}
	d, err := r.DecideHardened(MethodCPUFL, truth, deadReadings{}, nil, 15)
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.CPUFreqGHz != apu.MinCPUFreq() { //lint:ignore floatcmp discrete frequency line
		t.Errorf("dead sensor left CPU+FL at %v GHz", d.Config.CPUFreqGHz)
	}
}

// TestHardenedModelFLFloorSkipsNaNPower: on a dead sensor, hardened
// Model+FL floors at the minimum-predicted-power configuration by the
// runtime's min-power rule (Select at cap −Inf), which skips a NaN
// predicted power instead of seeding its minimum with it.
func TestHardenedModelFLFloorSkipsNaNPower(t *testing.T) {
	space, model, profs := setup(t)
	r := &Runner{Space: space, Model: model}
	kp := profs[0]
	truth := ProfileTruth{Profile: kp}
	preds, cluster, err := model.PredictAll(core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	preds[0].PowerW = math.NaN()
	minID := -1
	for _, p := range preds {
		if !math.IsNaN(p.PowerW) && (minID < 0 || p.PowerW < preds[minID].PowerW) {
			minID = p.ConfigID
		}
	}
	d, err := r.DecideHardened(MethodModelFL, truth, deadReadings{}, core.NewSelector(preds, cluster), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.ConfigID != minID {
		t.Errorf("dead-sensor floor = config %d, want minimum-predicted-power config %d", d.ConfigID, minID)
	}
}

type deadReadings struct{}

func (deadReadings) ReadPowerW(_, _, _ int) (float64, error) {
	return 0, power.ErrSensorDropout
}
