package rts

import (
	"errors"
	"math"
	"testing"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/stats"
)

func TestNewRejectsBadZ(t *testing.T) {
	m, _ := trainedModel(t)
	cases := []struct {
		z  float64
		ok bool
	}{
		{0, true},
		{1.5, true},
		{-1, false},
		{math.Copysign(0, -1), true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	}
	for _, tc := range cases {
		_, err := New(m, Options{CapW: 24, VarAwareZ: tc.z})
		if tc.ok && err != nil {
			t.Errorf("z=%v rejected: %v", tc.z, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadZ) {
			t.Errorf("z=%v: err = %v, want ErrBadZ", tc.z, err)
		}
	}
}

// sampleRunsOf returns the two sample runs a kernel was adapted from,
// as the runtime's snapshot persists them.
func sampleRunsOf(t *testing.T, rt *Runtime, k kernels.Kernel) core.SampleRuns {
	t.Helper()
	for _, kc := range rt.Snapshot().Kernels {
		if kc.Key == k.ID() && kc.Adapted {
			return core.SampleRuns{CPU: kc.CPUSample, GPU: kc.GPUSample}
		}
	}
	t.Fatalf("%s has not adapted", k.ID())
	return core.SampleRuns{}
}

// TestRuntimeSelectionMatchesCore is the runtime leg of the cross-layer
// agreement: for every held-out kernel, at caps just either side of
// every predicted power and variance-aware bound, the configuration the
// runtime pins after a cap change is the one core.SelectUnderCap (or
// SelectUnderCapVarAware) picks from the same sample runs.
func TestRuntimeSelectionMatchesCore(t *testing.T) {
	m, held := trainedModel(t)
	const eps = 1e-6
	for _, z := range []float64{0, 1.5} {
		rt, err := New(m, Options{CapW: 24, VarAwareZ: z})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, k := range held {
			for i := 0; i < 3; i++ {
				if _, err := rt.RunKernel(k); err != nil {
					t.Fatal(err)
				}
			}
			sr := sampleRunsOf(t, rt, k)
			preds, _, err := m.PredictAll(sr)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range preds {
				for _, edge := range []float64{p.PowerW, p.PowerW + z*p.PowerStd} {
					for _, capW := range []float64{edge - eps, edge + eps} {
						// An unchanged cap keeps its pin by design.
						if capW <= 0 || stats.AlmostEqual(capW, rt.Cap()) {
							continue
						}
						if err := rt.SetCap(capW); err != nil {
							t.Fatal(err)
						}
						if _, err := rt.RunKernel(k); err != nil {
							t.Fatal(err)
						}
						var want core.Selection
						if z == 0 {
							want, err = m.SelectUnderCap(sr, capW)
						} else {
							want, err = m.SelectUnderCapVarAware(sr, capW, z)
						}
						if err != nil {
							t.Fatal(err)
						}
						got, _, _ := rt.SelectionFor(k.ID())
						if id := m.Space.IDOf(got); id != want.ConfigID {
							t.Errorf("%s z=%v cap=%v: runtime pinned config %d, core selected %d",
								k.ID(), z, capW, id, want.ConfigID)
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("z=%v: no caps checked", z)
		}
	}
}

// TestReselectBreaksPerfTiesByLowerID pins the tie rule reselect
// shares with core.SelectAmong: of two configurations predicted to fit
// with exactly equal performance, the lower config ID wins, even when
// the higher one is predicted to draw less power.
func TestReselectBreaksPerfTiesByLowerID(t *testing.T) {
	m, _ := trainedModel(t)
	rt, err := New(m, Options{CapW: 20})
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]core.Prediction, m.Space.Len())
	for id, cfg := range m.Space.Configs {
		preds[id] = core.Prediction{ConfigID: id, Config: cfg, Perf: 1, PowerW: 100}
	}
	preds[3].Perf, preds[3].PowerW = 5, 10
	preds[7].Perf, preds[7].PowerW = 5, 8
	st := &kernelState{KernelRecord: KernelRecord{Cluster: 0}}
	st.setPredictions(preds)
	if err := rt.reselect(st, 20); err != nil {
		t.Fatal(err)
	}
	if st.Pinned != m.Space.Configs[3] {
		t.Errorf("tie pinned %v, want config 3 (%v)", st.Pinned, m.Space.Configs[3])
	}
}
