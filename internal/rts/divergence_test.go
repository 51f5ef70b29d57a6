package rts

import (
	"math"
	"testing"
)

func TestDivergenceBasics(t *testing.T) {
	var r KernelRecord
	if r.DivEWMA != 0 || r.DivSamples != 0 {
		t.Fatal("fresh record not zero")
	}
	if r.diverged(0) {
		t.Error("fresh record reports divergence")
	}
	// The first observation seeds the EWMA directly.
	r.observeDivergence(20, 30)
	if math.Abs(r.DivEWMA-0.5) > 1e-12 {
		t.Errorf("first rel = %v, want 0.5", r.DivEWMA)
	}
	if r.DivSamples != 1 {
		t.Errorf("samples = %d", r.DivSamples)
	}
	// The second blends with weight divAlpha.
	r.observeDivergence(20, 20) // rel 0
	if want := 0.5 * 0.5; math.Abs(r.DivEWMA-want) > 1e-12 {
		t.Errorf("second ewma = %v, want %v", r.DivEWMA, want)
	}
	if !r.diverged(0.2) || r.diverged(0.3) {
		t.Errorf("diverged thresholds around %v wrong", r.DivEWMA)
	}
	r.resetDivergence()
	if r.DivEWMA != 0 || r.DivSamples != 0 || r.diverged(0) {
		t.Error("reset incomplete")
	}
}

func TestDivergenceIgnoresUnusableInputs(t *testing.T) {
	var r KernelRecord
	r.observeDivergence(20, 25)
	before := r.DivEWMA
	for _, pair := range [][2]float64{
		{math.NaN(), 20}, {20, math.NaN()},
		{math.Inf(1), 20}, {20, math.Inf(-1)},
		{0, 20}, {20, 0}, {-5, 20}, {20, -5},
	} {
		if r.observeDivergence(pair[0], pair[1]); math.Abs(r.DivEWMA-before) > 1e-15 {
			t.Errorf("observe(%v, %v) moved ewma to %v", pair[0], pair[1], r.DivEWMA)
		}
	}
	if r.DivSamples != 1 {
		t.Errorf("unusable inputs counted: samples = %d", r.DivSamples)
	}
}

func TestDivergenceSustainedDriftSurfaces(t *testing.T) {
	// Sustained 50% divergence must cross a 0.35 threshold within a few
	// iterations despite starting from a healthy history.
	var r KernelRecord
	for i := 0; i < 10; i++ {
		r.observeDivergence(20, 20)
	}
	steps := 0
	for !r.diverged(0.35) {
		r.observeDivergence(20, 30)
		steps++
		if steps > 10 {
			t.Fatal("sustained divergence never surfaced")
		}
	}
	if steps > 3 {
		t.Errorf("took %d steps to surface 50%% divergence", steps)
	}
}

// TestRestoreClampsNegativeDivSamples: a negative sample count read
// from a corrupt journal restores as no observations, so the next
// reading seeds the EWMA instead of blending with the stale value.
func TestRestoreClampsNegativeDivSamples(t *testing.T) {
	m, _ := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	kc := KernelCheckpoint{Key: "k", KernelRecord: KernelRecord{DivEWMA: 0.9, DivSamples: -3}}
	if err := rt.Restore(&Snapshot{Version: SnapshotVersion, CapW: 24, Kernels: []KernelCheckpoint{kc}}); err != nil {
		t.Fatal(err)
	}
	st := rt.kernels["k"]
	if st.DivSamples != 0 {
		t.Fatalf("restored div_samples %d, want 0", st.DivSamples)
	}
	if st.observeDivergence(20, 20); st.DivEWMA != 0 || st.DivSamples != 1 {
		t.Errorf("first reading after restore: ewma %v over %d samples, want 0 over 1", st.DivEWMA, st.DivSamples)
	}
}
