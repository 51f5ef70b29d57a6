package rts

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"

	"acsel/internal/checkpoint"
	"acsel/internal/fault"
)

// foldSummary is the summary a full step history reduces to, summed in
// execution order: the oracle for the running totals.
func foldSummary(steps []Step) StepTotals {
	var t StepTotals
	for _, s := range steps {
		t.Steps++
		t.TimeSec += s.TimeSec
		t.EnergyJ += s.EnergyJ
		switch {
		case s.Quarantined:
			t.Quarantined++
		case s.SensorLost:
			t.SensorLost++
		case !s.UnderCap:
			t.Violations++
		}
		if s.Phase == PhasePinned {
			t.PinnedSteps++
		} else {
			t.SampledSteps++
		}
	}
	return t
}

func totalsOf(s Summary) StepTotals {
	return StepTotals{Steps: s.Steps, TimeSec: s.TimeSec, EnergyJ: s.EnergyJ, Violations: s.Violations,
		PinnedSteps: s.PinnedSteps, SampledSteps: s.SampledSteps, Quarantined: s.Quarantined, SensorLost: s.SensorLost}
}

// TestRetainedWindowIsTailOfSteps runs a faulted runtime past several
// wraps of its ring and checks, at every step count, that Steps and
// LastSteps are the tail of what RunKernel returned and that the
// running totals equal the fold of the whole history bit for bit.
func TestRetainedWindowIsTailOfSteps(t *testing.T) {
	m, held := trainedModel(t)
	sc, _ := fault.ScenarioByName("blackout")
	rt, err := New(m, Options{CapW: 22, Faults: fault.NewInjector(sc, 3)})
	if err != nil {
		t.Fatal(err)
	}
	var all []Step
	for i := 0; i < 3*StepWindow+7; i++ {
		all = append(all, driveSteps(t, rt, held, i, i+1)...)
		if got := rt.Steps(); !reflect.DeepEqual(got, lastN(all, StepWindow)) {
			t.Fatalf("after %d steps: Steps is not the last %d executed", len(all), StepWindow)
		}
		for _, n := range []int{1, 5, StepWindow - 1, StepWindow, StepWindow + 3} {
			if got := rt.LastSteps(n); !reflect.DeepEqual(got, lastN(all, min(n, StepWindow))) {
				t.Fatalf("after %d steps: LastSteps(%d) is not the tail", len(all), n)
			}
		}
		if rt.NumSteps() != len(all) {
			t.Fatalf("NumSteps %d after %d steps", rt.NumSteps(), len(all))
		}
		if got, want := totalsOf(rt.Summarize()), foldSummary(all); got != want {
			t.Fatalf("after %d steps: totals %+v, fold of the history %+v", len(all), got, want)
		}
	}
}

// TestSnapshotSizeIndependentOfSteps: a snapshot carries totals and a
// fixed window, not the history, so 50k steps encode to the size of 1k
// up to the width of the counters' digits; and the runtime's profiler
// keeps no samples.
func TestSnapshotSizeIndependentOfSteps(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, FL: true})
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		rec, err := EncodeSnapshot(rt.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return len(rec.Data)
	}
	run := func(from, to int) {
		for s := from; s < to; s++ {
			if _, err := rt.RunKernel(held[s%len(held)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0, 1000)
	small := size()
	run(1000, 50000)
	large := size()
	if len(rt.Snapshot().Recent) != StepWindow {
		t.Fatalf("snapshot retains %d steps, want %d", len(rt.Snapshot().Recent), StepWindow)
	}
	if n := len(rt.Profiler().History()); n != 0 {
		t.Fatalf("the runtime's profiler retains %d samples", n)
	}
	t.Logf("snapshot: %d bytes after 1k steps, %d after 50k", small, large)
	// Iteration counters and totals gain a digit or two; the history
	// would add about 300 bytes per step.
	if d := large - small; d < -small/50 || d > small/50 {
		t.Fatalf("snapshot is %d bytes after 1k steps and %d after 50k", small, large)
	}
}

// readFixture decodes a JSON test fixture.
func readFixture(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestRestoreVersion1Fixture restores a version-1 snapshot — the full
// step history — written by the runtime before snapshots became
// bounded: a blackout run of six kernels cut after 30 steps. The
// restored runtime must report that runtime's Summary, retain the tail
// of the history, and continue with the same 12 steps it executed.
func TestRestoreVersion1Fixture(t *testing.T) {
	m, held := trainedModel(t)
	var snap Snapshot
	var wantSum Summary
	var wantNext []Step
	readFixture(t, "snapshot_v1.json", &snap)
	readFixture(t, "snapshot_v1_summary.json", &wantSum)
	readFixture(t, "snapshot_v1_next_steps.json", &wantNext)
	if snap.Version != 1 || len(snap.Steps) != 30 {
		t.Fatalf("fixture is version %d with %d steps", snap.Version, len(snap.Steps))
	}
	sc, _ := fault.ScenarioByName("blackout")
	rt, err := New(m, Options{CapW: 22, Faults: fault.NewInjector(sc, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if got := rt.Summarize(); !reflect.DeepEqual(got, wantSum) {
		t.Fatalf("restored summary:\ngot  %+v\nwant %+v", got, wantSum)
	}
	if got := rt.Steps(); !reflect.DeepEqual(got, lastN(snap.Steps, StepWindow)) || rt.NumSteps() != 30 {
		t.Fatalf("restored %d steps, retained %d", rt.NumSteps(), len(got))
	}
	if got := driveSteps(t, rt, held[:6], 30, 42); !reflect.DeepEqual(got, wantNext) {
		t.Fatal("restored runtime's next steps differ from the original run's")
	}
}

// TestRestoreVersion2Fixture restores a version-2 snapshot — totals and
// the retained window — of the same blackout run the version-1 fixture
// holds, cut after 30 steps. It pins the bounded format: every key a
// written snapshot carries must still restore to that run's Summary,
// retained window and next 12 steps.
func TestRestoreVersion2Fixture(t *testing.T) {
	m, held := trainedModel(t)
	data, err := os.ReadFile("testdata/snapshot_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(checkpoint.Record{Type: RecordSnapshot, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	var wantSum Summary
	var wantNext []Step
	readFixture(t, "snapshot_v2_summary.json", &wantSum)
	readFixture(t, "snapshot_v2_next_steps.json", &wantNext)
	if snap.Version != 2 || snap.Totals.Steps != 30 || len(snap.Recent) != 30 || len(snap.Kernels) != 6 {
		t.Fatalf("fixture is version %d with %d steps, %d retained, %d kernels",
			snap.Version, snap.Totals.Steps, len(snap.Recent), len(snap.Kernels))
	}
	sc, _ := fault.ScenarioByName("blackout")
	rt, err := New(m, Options{CapW: 22, Faults: fault.NewInjector(sc, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := rt.Summarize(); !reflect.DeepEqual(got, wantSum) {
		t.Fatalf("restored summary:\ngot  %+v\nwant %+v", got, wantSum)
	}
	if got := rt.Steps(); !reflect.DeepEqual(got, snap.Recent) || rt.NumSteps() != 30 {
		t.Fatalf("restored %d steps, retained %d", rt.NumSteps(), len(got))
	}
	if got := driveSteps(t, rt, held[:6], 30, 42); !reflect.DeepEqual(got, wantNext) {
		t.Fatal("restored runtime's next steps differ from the original run's")
	}
}

func TestRestoreRejectsBadStepLog(t *testing.T) {
	m, _ := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	step := Step{Kernel: "k"}
	cases := map[string]*Snapshot{
		"v2 with history": {Version: SnapshotVersion, CapW: 24, Steps: []Step{step}},
		"short window":    {Version: SnapshotVersion, CapW: 24, Totals: StepTotals{Steps: 2}, Recent: []Step{step}},
		"window past total": {Version: SnapshotVersion, CapW: 24, Totals: StepTotals{Steps: 1},
			Recent: []Step{step, step}},
		"negative total": {Version: SnapshotVersion, CapW: 24, Totals: StepTotals{Steps: -1}},
	}
	for name, snap := range cases {
		if err := rt.Restore(snap); err == nil {
			t.Errorf("%s: Restore accepted %+v", name, snap)
		}
	}
	// A window is full once StepWindow steps have run; later steps
	// keep it at that size.
	full := make([]Step, StepWindow)
	if err := rt.Restore(&Snapshot{Version: SnapshotVersion, CapW: 24, Totals: StepTotals{Steps: 1000}, Recent: full}); err != nil {
		t.Errorf("full window rejected: %v", err)
	}
}

// TestReadersDuringRunKernel calls every reader, SetCap, Snapshot and
// the generation while RunKernel executes on another goroutine — what
// an agent's report handler does to a serving runtime. Under -race it
// fails on any runtime state written outside the lock.
func TestReadersDuringRunKernel(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, FL: true, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 4*len(held); i++ {
			if _, err := rt.RunKernel(held[i%len(held)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	caps := []float64{18, 24, 30}
	for i := 0; ; i++ {
		select {
		case <-done:
			wg.Wait()
			if rt.NumSteps() != 4*len(held) {
				t.Fatalf("%d steps recorded", rt.NumSteps())
			}
			return
		default:
		}
		if err := rt.SetCap(caps[i%len(caps)]); err != nil {
			t.Fatal(err)
		}
		_ = rt.Cap()
		_ = rt.Generation()
		_ = rt.Steps()
		_ = rt.LastSteps(3)
		_ = rt.NumSteps()
		_ = rt.Summarize()
		for _, key := range rt.AdaptedKernels() {
			if _, ok := rt.SelectorFor(key); !ok {
				t.Fatalf("%s listed as adapted without a selector", key)
			}
		}
		k := held[i%len(held)].ID()
		_, _ = rt.HealthFor(k)
		_, _, _ = rt.SelectionFor(k)
		if _, err := EncodeSnapshot(rt.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
}
