package core

import (
	"math"
	"slices"
	"testing"
)

// sameSelect reports whether two selection results are identical: the
// predictions' floats bit for bit (so −0, NaN and ±Inf count as
// themselves), and errors by message.
func sameSelect(a Selection, aerr error, b Selection, berr error) bool {
	if (aerr == nil) != (berr == nil) {
		return false
	}
	if aerr != nil {
		return aerr.Error() == berr.Error()
	}
	pa, pb := a.Predicted, b.Predicted
	return a.ConfigID == b.ConfigID && a.Config == b.Config &&
		a.MeetsCapPredicted == b.MeetsCapPredicted && a.Cluster == b.Cluster &&
		pa.ConfigID == pb.ConfigID && pa.Config == pb.Config &&
		math.Float64bits(pa.Perf) == math.Float64bits(pb.Perf) &&
		math.Float64bits(pa.PowerW) == math.Float64bits(pb.PowerW) &&
		math.Float64bits(pa.PerfStd) == math.Float64bits(pb.PerfStd) &&
		math.Float64bits(pa.PowerStd) == math.Float64bits(pb.PowerStd)
}

// checkSelector compares the compiled selector against SelectAmong at
// one cap and margin.
func checkSelector(t *testing.T, s *Selector, preds []Prediction, cluster int, capW, z float64) {
	t.Helper()
	want, werr := SelectAmong(preds, cluster, capW, z)
	got, gerr := s.Select(capW, z)
	if !sameSelect(got, gerr, want, werr) {
		t.Fatalf("cap=%v z=%v: Selector %+v (%v), SelectAmong %+v (%v)", capW, z, got, gerr, want, werr)
	}
}

// TestSelectorMatchesSelectAmong checks the selector on every profiled
// kernel's real predictions, at caps on a grid and just either side of
// every prediction's power and variance-aware bound.
func TestSelectorMatchesSelectAmong(t *testing.T) {
	profs, m, _ := trained(t)
	for _, kp := range profs {
		preds, c, err := m.PredictAll(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSelector(preds, c)
		for _, z := range []float64{0, 0.5, 1, 1.5, 2} {
			for capW := 0.0; capW <= 60; capW += 0.25 {
				checkSelector(t, s, preds, c, capW, z)
			}
			for _, p := range preds {
				for _, edge := range []float64{p.PowerW, p.PowerW + z*p.PowerStd} {
					checkSelector(t, s, preds, c, math.Nextafter(edge, math.Inf(-1)), z)
					checkSelector(t, s, preds, c, edge, z)
					checkSelector(t, s, preds, c, math.Nextafter(edge, math.Inf(1)), z)
				}
			}
		}
	}
}

// TestSelectorUncompiledVectors covers the vectors the selector once
// handed to SelectAmong instead of compiling: an empty one (an error)
// and one too long to index with a byte.
func TestSelectorUncompiledVectors(t *testing.T) {
	if _, err := NewSelector(nil, 0).Select(20, 0); err == nil {
		t.Fatal("empty predictions accepted")
	}
	checkSelector(t, NewSelector(nil, 0), nil, 0, 20, 0)
	checkSelector(t, nil, nil, 0, 20, 0)
	preds := make([]Prediction, 259)
	for i := range preds {
		preds[i] = Prediction{ConfigID: i, Perf: float64(i % 17), PowerW: float64(5 + i%40), PowerStd: 0.5}
	}
	s := NewSelector(preds, 2)
	for capW := 0.0; capW <= 50; capW += 0.5 {
		checkSelector(t, s, preds, 2, capW, 1)
	}
	checkFrontier(t, s, preds, 1, []float64{0, 25, 50})
}

// fuzzValues are the floats fuzzed predictions are built from: the
// non-finite values, both zeros, and a few repeated magnitudes so that
// ties are common.
var fuzzValues = [...]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, 2, 2.5, 5, 10, 12.5, 20, 30, 45, -3, math.MaxFloat64,
}

// fuzzPreds decodes data into predictions, four bytes each: Perf,
// PowerW and PowerStd pick from fuzzValues, and the fourth byte keeps
// the slice index as ConfigID or, one time in four, substitutes a
// possibly negative or out-of-range one.
func fuzzPreds(data []byte) []Prediction {
	var preds []Prediction
	for i := 0; i+4 <= len(data) && len(preds) < 64; i += 4 {
		id := len(preds)
		if b := data[i+3]; b%4 == 0 {
			id = int(int8(b)) / 4
		}
		preds = append(preds, Prediction{
			ConfigID: id,
			Perf:     fuzzValues[data[i]%byte(len(fuzzValues))],
			PowerW:   fuzzValues[data[i+1]%byte(len(fuzzValues))],
			PowerStd: fuzzValues[data[i+2]%byte(len(fuzzValues))],
		})
	}
	return preds
}

// checkFrontier checks Frontier(z) against Select(·, z): bounds and
// Perf ascend, bounds strictly; at each point's own bound Select picks
// that point; and at every cap in caps Select's answer is the step
// function the frontier describes, the last point whose bound fits
// (or the fallback where none fits, or where that point's negative
// ConfigID makes Select fall back).
func checkFrontier(t *testing.T, s *Selector, preds []Prediction, z float64, caps []float64) {
	t.Helper()
	caps = slices.Clip(caps)
	front := s.Frontier(z)
	bound := func(p Prediction) float64 { return p.PowerW + z*p.PowerStd }
	for i, p := range front {
		if i > 0 && (!(bound(p) > bound(front[i-1])) || !(p.Perf >= front[i-1].Perf)) {
			t.Fatalf("z=%v: frontier point %d (%+v) does not ascend from %+v", z, i, p, front[i-1])
		}
		caps = append(caps, bound(p))
	}
	for _, c := range caps {
		sel, err := s.Select(c, z)
		var on *Prediction // the frontier's answer at c
		for i := range front {
			if bound(front[i]) <= c {
				on = &front[i]
			}
		}
		switch {
		case on != nil && on.ConfigID >= 0 && on.ConfigID < len(preds):
			if err != nil || !sel.MeetsCapPredicted || sel.ConfigID != on.ConfigID {
				t.Fatalf("z=%v cap=%v: Select %+v (%v), frontier point %+v", z, c, sel, err, *on)
			}
		case err == nil && sel.MeetsCapPredicted:
			t.Fatalf("z=%v cap=%v: Select's winner %+v is not on the frontier %+v", z, c, sel, front)
		}
	}
}

// FuzzSelectorMatchesSelectAmong checks that the compiled selector
// returns exactly SelectAmong's result, error wording included, over
// predictions with NaN and ±Inf in every field, ties, bad ConfigIDs,
// non-finite caps and margins both zero and positive; and that its
// Frontier is exactly the set of winners Select returns (checkFrontier).
func FuzzSelectorMatchesSelectAmong(f *testing.F) {
	f.Add([]byte{}, 20.0, 0.0)
	f.Add([]byte{5, 9, 6, 1, 5, 8, 6, 1, 11, 12, 7, 1}, 10.0, 0.0)
	f.Add([]byte{0, 9, 6, 1, 2, 8, 0, 1, 1, 0, 1, 1, 9, 7, 5, 4}, 20.0, 1.0)
	f.Add([]byte{9, 8, 6, 0x80, 9, 8, 6, 1, 13, 3, 3, 0x7c}, math.Inf(1), 0.5)
	f.Add([]byte{2, 0, 0, 1, 1, 1, 1, 1}, math.NaN(), 2.0)
	// Equal Perf, the earlier prediction costlier: both are winners, so
	// the frontier keeps both and its Perf does not strictly rise.
	f.Add([]byte{9, 11, 3, 1, 9, 10, 3, 1}, 20.0, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, capW, z float64) {
		preds := fuzzPreds(data)
		s := NewSelector(preds, 3)
		caps := []float64{capW, math.NaN(), math.Inf(1), math.Inf(-1), 0}
		for _, p := range preds {
			caps = append(caps, p.PowerW)
		}
		for _, zz := range []float64{z, 0, 0.5, 2} {
			for _, c := range caps {
				checkSelector(t, s, preds, 3, c, zz)
			}
			checkFrontier(t, s, preds, zz, caps)
		}
	})
}

// selectQuery is one query of a selection benchmark.
type selectQuery struct {
	kernel int
	capW   float64
	z      float64
}

// benchSelectInputs returns every profiled kernel's real predictions
// and clusters, and a query stream over them: caps from 5 to 45 W in
// quarter watts and margins z ∈ {0, .5, 1, 2}, interleaved so that
// consecutive queries hit different kernels, as cache misses across a
// service's shards do.
func benchSelectInputs(b *testing.B) ([][]Prediction, []int, []selectQuery) {
	profs, m, _ := trained(b)
	preds := make([][]Prediction, len(profs))
	clusters := make([]int, len(profs))
	for i, kp := range profs {
		var err error
		preds[i], clusters[i], err = m.PredictAll(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			b.Fatal(err)
		}
	}
	var qs []selectQuery
	for capW := 5.0; capW <= 45; capW += 0.25 {
		for _, z := range []float64{0, 0.5, 1, 2} {
			for k := range preds {
				qs = append(qs, selectQuery{kernel: k, capW: capW, z: z})
			}
		}
	}
	return preds, clusters, qs
}

// BenchmarkSelector answers the query stream from per-kernel compiled
// selectors, the query service's and the runtime's miss path.
func BenchmarkSelector(b *testing.B) {
	preds, clusters, qs := benchSelectInputs(b)
	sels := make([]*Selector, len(preds))
	for i := range preds {
		sels[i] = NewSelector(preds[i], clusters[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := sels[q.kernel].Select(q.capW, q.z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectAmong answers the same query stream with full
// SelectAmong sweeps, the reference the selector is measured against.
func BenchmarkSelectAmong(b *testing.B) {
	preds, clusters, qs := benchSelectInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := SelectAmong(preds[q.kernel], clusters[q.kernel], q.capW, q.z); err != nil {
			b.Fatal(err)
		}
	}
}
