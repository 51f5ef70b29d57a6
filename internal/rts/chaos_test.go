package rts

import (
	"math"
	"reflect"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/fault"
)

func TestCapValidationRejectsNonFinite(t *testing.T) {
	m, _ := trainedModel(t)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0} {
		if _, err := New(m, Options{CapW: w}); err == nil {
			t.Errorf("New accepted cap %v", w)
		}
	}
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0} {
		if err := rt.SetCap(w); err == nil {
			t.Errorf("SetCap accepted %v", w)
		}
	}
	if got := rt.Cap(); got != 24 {
		t.Errorf("rejected caps leaked through: cap = %v", got)
	}
}

func TestRungString(t *testing.T) {
	if RungModel.String() != "model" || RungModelFL.String() != "model+fl" || RungMinPower.String() != "min-power" {
		t.Fatal("rung strings")
	}
	if Rung(9).String() == "" {
		t.Fatal("unknown rung renders empty")
	}
}

// chaosRun drives every held-out kernel iters times under a scenario
// and returns the runtime and every step RunKernel returned, in order.
func chaosRun(t *testing.T, scenario string, seed int64, capW float64, iters int) (*Runtime, []Step) {
	t.Helper()
	m, held := trainedModel(t)
	sc, ok := fault.ScenarioByName(scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", scenario)
	}
	rt, err := New(m, Options{CapW: capW, Faults: fault.NewInjector(sc, seed)})
	if err != nil {
		t.Fatal(err)
	}
	var steps []Step
	for _, k := range held {
		for i := 0; i < iters; i++ {
			s, err := rt.RunKernel(k)
			if err != nil {
				t.Fatalf("%s iter %d under %s: %v", k.Name, i, scenario, err)
			}
			steps = append(steps, s)
		}
	}
	return rt, steps
}

func TestChaosReplayIsBitIdentical(t *testing.T) {
	a, as := chaosRun(t, "blackout", 7, 22, 12)
	b, bs := chaosRun(t, "blackout", 7, 22, 12)
	if !reflect.DeepEqual(as, bs) {
		t.Error("same scenario+seed produced different step histories")
	}
	if !reflect.DeepEqual(a.Steps(), b.Steps()) {
		t.Error("same scenario+seed retained different steps")
	}
	if !reflect.DeepEqual(a.Summarize(), b.Summarize()) {
		t.Error("same scenario+seed produced different summaries")
	}
	_, cs := chaosRun(t, "blackout", 8, 22, 12)
	if reflect.DeepEqual(as, cs) {
		t.Error("different seed replayed the same fault schedule")
	}
}

func TestSensorDropoutSurvivedAndAccounted(t *testing.T) {
	rt, steps := chaosRun(t, "sensor-dropout", 3, 24, 15)
	sum := rt.Summarize()
	if sum.Health == nil {
		t.Fatal("no health map under fault injection")
	}
	totalDropouts := 0
	for _, h := range sum.Health {
		totalDropouts += h.Dropouts
	}
	// 20% dropout over 8 kernels × 15 iterations must fire many times.
	if totalDropouts == 0 {
		t.Error("sensor-dropout scenario produced zero dropouts")
	}
	// Bounded re-reads recover most dropouts; only unrecovered ones
	// surface as SensorLost steps, and none may count as violations of
	// record: lost steps carry the model's estimate.
	for _, s := range steps {
		if s.SensorLost && s.PowerW < 0 {
			t.Errorf("lost-sensor step has negative power estimate: %+v", s)
		}
	}
}

func TestStuckSensorWalksDownLadder(t *testing.T) {
	// sensor-stuck pins readings at 9 W — plausible (under the sanity
	// bound) but far from predictions, so only the divergence watchdog
	// can catch it.
	rt, _ := chaosRun(t, "sensor-stuck", 1, 24, 25)
	sum := rt.Summarize()
	if sum.Demotions == 0 {
		t.Error("stuck sensor never demoted any kernel")
	}
	if sum.Quarantined != 0 {
		t.Errorf("stuck-at-9W readings should pass the sanity gate, got %d quarantined", sum.Quarantined)
	}
}

func TestSpikeQuarantinedBySanityGate(t *testing.T) {
	// sensor-spike multiplies readings ×8 (≥96 W), beyond the 120 W
	// plausibility bound for high-power configs — those readings must be
	// quarantined, not fed to the limiter, and excluded from Violations.
	rt, steps := chaosRun(t, "sensor-spike", 2, 30, 20)
	sum := rt.Summarize()
	quarantinedSteps := 0
	for _, s := range steps {
		if s.Quarantined {
			quarantinedSteps++
			if s.PowerW > 120 {
				t.Errorf("quarantined step leaked implausible power %v into the record", s.PowerW)
			}
		}
	}
	if quarantinedSteps != sum.Quarantined {
		t.Errorf("summary quarantined %d, steps show %d", sum.Quarantined, quarantinedSteps)
	}
}

func TestPStateFlakyRetriesAndSurvives(t *testing.T) {
	rt, _ := chaosRun(t, "pstate-flaky", 5, 24, 15)
	sum := rt.Summarize()
	if sum.ApplyRetries == 0 {
		t.Error("flaky P-state scenario triggered zero apply retries")
	}
	if rt.PStates().FailedApplies() == 0 {
		t.Error("manager recorded no failed applies")
	}
	for _, h := range sum.Health {
		if h.ApplyRetries > 0 && h.BackoffSec <= 0 {
			t.Error("retries booked no backoff")
		}
	}
}

func TestLadderDemoteAndPromoteMechanics(t *testing.T) {
	// Drive the ladder directly for deterministic coverage of the
	// demote → floor → promote cycle.
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	k := held[0]
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.kernels[k.ID()]
	if st.Rung != RungModel {
		t.Fatalf("base rung = %v", st.Rung)
	}
	modelPin := st.Pinned

	rt.demote(st, 24)
	if st.Rung != RungModelFL || st.Pinned != modelPin {
		t.Fatalf("first demotion: rung %v pinned %v", st.Rung, st.Pinned)
	}
	rt.demote(st, 24)
	if st.Rung != RungMinPower {
		t.Fatalf("second demotion: rung %v", st.Rung)
	}
	floor := st.preds[0]
	for _, p := range st.preds[1:] {
		if p.PowerW < floor.PowerW {
			floor = p
		}
	}
	floorCfg := floor.Config
	if st.Pinned != floorCfg {
		t.Errorf("min-power rung pinned %v, floor is %v", st.Pinned, floorCfg)
	}
	// A cap change while floored must not climb off the floor.
	if err := rt.reselect(st, 30); err != nil {
		t.Fatal(err)
	}
	if st.Pinned != floorCfg {
		t.Error("cap change unfloored a min-power kernel")
	}
	// Demoting at the floor is a no-op.
	rt.demote(st, 24)
	if st.Rung != RungMinPower || st.Demotions != 2 {
		t.Errorf("floor demotion moved state: rung %v demotions %d", st.Rung, st.Demotions)
	}

	rt.promote(st, 24)
	if st.Rung != RungModelFL || st.Recoveries != 1 {
		t.Fatalf("promotion: rung %v recoveries %d", st.Rung, st.Recoveries)
	}
	if st.Pinned == floorCfg && st.Pinned != modelPin {
		t.Error("promotion did not re-select off the floor")
	}
	rt.promote(st, 24)
	if st.Rung != RungModel {
		t.Fatalf("second promotion: rung %v", st.Rung)
	}
	// Promoting past the base rung is a no-op.
	rt.promote(st, 24)
	if st.Rung != RungModel || st.Recoveries != 2 {
		t.Errorf("over-promotion moved state: rung %v recoveries %d", st.Rung, st.Recoveries)
	}

	h, ok := rt.HealthFor(k.ID())
	if !ok || h.Demotions != 2 || h.Recoveries != 2 {
		t.Errorf("health = %+v ok=%v", h, ok)
	}
	if _, ok := rt.HealthFor("nope"); ok {
		t.Error("health for unknown kernel")
	}
}

func TestFLBaseRungWithOptionOn(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, FL: true, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	k := held[1]
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.kernels[k.ID()]
	if st.Rung != RungModelFL || st.BaseRung != RungModelFL {
		t.Errorf("FL option: rung %v base %v, want model+fl", st.Rung, st.BaseRung)
	}
	// Recovery must stop at the FL base rung, never below it.
	rt.demote(st, 24)
	rt.promote(st, 24)
	rt.promote(st, 24)
	if st.Rung != RungModelFL {
		t.Errorf("recovered past the base rung to %v", st.Rung)
	}
}

func TestWatchdogOnlyRunMatchesCleanSteps(t *testing.T) {
	// The armed plumbing (retry-capable apply and measure paths) must
	// not change what executes on a healthy system: with the ladder
	// held observation-only (demotion threshold out of reach), an armed
	// run is bit-identical to a clean one. (With demotion live, an
	// armed run MAY differ — reacting to genuine cap violations is the
	// watchdog's job.)
	m, held := trainedModel(t)
	clean, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	armed, err := New(m, Options{CapW: 24, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	armed.demoteAfter = 1 << 30
	var cs, as []Step
	for _, k := range held[:3] {
		for i := 0; i < 6; i++ {
			c, err := clean.RunKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			a, err := armed.RunKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			cs, as = append(cs, c), append(as, a)
		}
	}
	if len(cs) != len(as) {
		t.Fatalf("step counts differ: %d vs %d", len(cs), len(as))
	}
	for i := range cs {
		if cs[i].Config != as[i].Config || cs[i].PowerW != as[i].PowerW || cs[i].TimeSec != as[i].TimeSec { //lint:ignore floatcmp identical runs must agree bit-for-bit
			t.Errorf("step %d diverged: clean %+v armed %+v", i, cs[i], as[i])
		}
	}
	if s := armed.Summarize(); s.Demotions != 0 || s.Quarantined != 0 || s.SensorLost != 0 {
		t.Errorf("healthy armed run reported faults: %+v", s)
	}
}

func TestBlackoutKeepsRuntimeAlive(t *testing.T) {
	// Every seam faulting at once: the runtime must never return an
	// error, and untrusted steps must not count as violations.
	rt, steps := chaosRun(t, "blackout", 11, 22, 15)
	sum := rt.Summarize()
	if sum.Steps != len(steps) {
		t.Fatalf("summary counts %d steps, RunKernel returned %d", sum.Steps, len(steps))
	}
	for _, s := range steps {
		if !s.Trusted() && !s.UnderCap && s.PowerW > 22 {
			// Untrusted steps carry estimates; an estimate over cap is
			// possible but must never have been a sensor claim.
			if s.PowerW > 120 {
				t.Errorf("untrusted step carries raw sensor claim: %+v", s)
			}
		}
	}
	if sum.Health == nil {
		t.Fatal("blackout run has no health map")
	}
}

func TestSampleConfigsUnchangedUnderFaults(t *testing.T) {
	// Fault injection must not change the adaptation protocol itself:
	// the first two iterations still run the paper's sample configs.
	_, steps := chaosRun(t, "blackout", 4, 24, 3)
	for _, s := range steps {
		switch s.Phase {
		case PhaseSampleCPU:
			if s.Config != apu.SampleConfigCPU() {
				t.Errorf("CPU sample ran %v", s.Config)
			}
		case PhaseSampleGPU:
			if s.Config != apu.SampleConfigGPU() {
				t.Errorf("GPU sample ran %v", s.Config)
			}
		}
	}
}
