package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"acsel/internal/mat"
)

// ranksFromBytes decodes a fuzz byte string into an integer rank list:
// one signed byte per rank, so ties, negatives, and reversals all occur
// naturally under mutation.
func ranksFromBytes(data []byte) []int {
	out := make([]int, len(data))
	for i, b := range data {
		out[i] = int(int8(b))
	}
	return out
}

// FuzzKendallTauRanks holds the tau-b contract under arbitrary rank
// lists: never panic, never return NaN or a value outside [-1, 1],
// stay symmetric in its arguments, score an identical untied ranking
// as exactly 1, and reject fewer than two pairs with ErrTooFew.
func FuzzKendallTauRanks(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, []byte{0, 1, 2, 3, 4}) // identical
	f.Add([]byte{0, 1, 2, 3, 4}, []byte{4, 3, 2, 1, 0}) // reversed
	f.Add([]byte{0, 0, 1, 1}, []byte{1, 1, 0, 0})       // tied blocks
	f.Add([]byte{5, 5, 5}, []byte{1, 2, 3})             // x fully tied
	f.Add([]byte{}, []byte{})                           // empty
	f.Add([]byte{7}, []byte{9})                         // single pair
	f.Add([]byte{255, 0, 128}, []byte{1, 254, 3})       // negatives via int8
	f.Fuzz(func(t *testing.T, da, db []byte) {
		n := len(da)
		if len(db) < n {
			n = len(db)
		}
		x := ranksFromBytes(da[:n])
		y := ranksFromBytes(db[:n])

		tau, err := KendallTauRanks(x, y)
		if n < 2 {
			if !errors.Is(err, ErrTooFew) {
				t.Fatalf("n=%d: err = %v, want ErrTooFew", n, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if math.IsNaN(tau) || tau < -1 || tau > 1 {
			t.Fatalf("tau = %v outside [-1, 1] for x=%v y=%v", tau, x, y)
		}

		// Symmetry: swapping the rankings swaps the two tie counts but
		// leaves both the numerator and the denominator product intact.
		rev, err := KendallTauRanks(y, x)
		if err != nil {
			t.Fatalf("symmetric call errored: %v", err)
		}
		if tau != rev {
			t.Fatalf("asymmetric: tau(x,y)=%v tau(y,x)=%v", tau, rev)
		}

		// Self-correlation of an untied list is exactly 1.
		if self, err := KendallTauRanks(x, x); err == nil && !hasTies(x) && self != 1 {
			t.Fatalf("tau(x,x) = %v, want 1 for untied x=%v", self, x)
		}

		// The derived dissimilarity must stay in [0, 1].
		if d := RankDissimilarity(tau); d < 0 || d > 1 || math.IsNaN(d) {
			t.Fatalf("RankDissimilarity(%v) = %v outside [0, 1]", tau, d)
		}
	})
}

func hasTies(x []int) bool {
	seen := map[int]bool{}
	for _, v := range x {
		if seen[v] {
			return true
		}
		seen[v] = true
	}
	return false
}

// fitInputFromBytes decodes a fuzz byte string into a regression
// problem: byte 0 picks 1–3 raw variables, byte 1's low bits the
// options, and every following 8 bytes one float64 by its bit pattern,
// so NaN, ±Inf, subnormals and values near overflow all occur under
// mutation. Values fill rows of nvars features and one target; at most
// 12 rows are used and a trailing partial row is dropped.
func fitInputFromBytes(data []byte) (X [][]float64, y []float64, opts RegressionOptions) {
	if len(data) < 2 {
		return nil, nil, opts
	}
	nvars := 1 + int(data[0])%3
	opts = RegressionOptions{
		Intercept:    data[1]&1 != 0,
		Interactions: data[1]&2 != 0,
		LogTarget:    data[1]&4 != 0,
	}
	var vals []float64
	for b := data[2:]; len(b) >= 8; b = b[8:] {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	for len(vals) >= nvars+1 && len(X) < 12 {
		X = append(X, vals[:nvars])
		y = append(y, vals[nvars])
		vals = vals[nvars+1:]
	}
	return X, y, opts
}

// fitFuzzSeed encodes a regression problem as fitInputFromBytes reads it.
func fitFuzzSeed(nvars int, optBits byte, vals ...float64) []byte {
	b := []byte{byte(nvars - 1), optBits}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzFitRegression holds FitRegression's input contract: it never
// panics; any NaN or ±Inf feature or target fails with ErrNonFinite;
// and finite input either fails with a typed error or yields finite
// coefficients.
func FuzzFitRegression(f *testing.F) {
	f.Add(fitFuzzSeed(1, 1, 1, 3, 2, 5, 3, 7, 4, 9))                  // exact line with intercept
	f.Add(fitFuzzSeed(2, 3, 1, 2, 5, 2, 1, 4, 3, 5, 8, 4, 3, 9))      // interactions, ridge path
	f.Add(fitFuzzSeed(1, 5, 1, 2, 2, 4, 3, 8))                        // LogTarget
	f.Add(fitFuzzSeed(1, 4, 1, 2, 2, 0))                              // LogTarget with a zero target
	f.Add(fitFuzzSeed(2, 1, 1, 7, 2, 2, 7, 3, 3, 7, 4))               // constant feature column
	f.Add(fitFuzzSeed(1, 1, 1, math.NaN(), 2, 3))                     // NaN target
	f.Add(fitFuzzSeed(2, 1, 1, math.Inf(1), 2, 2, 1, 3))              // +Inf feature
	f.Add(fitFuzzSeed(2, 3, 1e200, 1e200, 1, 2, 3, 4, 5, 6, 7))       // interaction overflow
	f.Add(fitFuzzSeed(1, 0, math.MaxFloat64, -math.MaxFloat64, 1, 1)) // extreme finite values
	f.Add(fitFuzzSeed(1, 0, 1.2e-153, 1.4e160))                       // the solve overflows to +Inf
	f.Fuzz(func(t *testing.T, data []byte) {
		X, y, opts := fitInputFromBytes(data)
		reg, err := FitRegression(X, y, opts)
		if hasNonFinite(X, y) {
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("non-finite input X=%v y=%v: err = %v, want ErrNonFinite", X, y, err)
			}
			return
		}
		if err != nil {
			for _, typed := range []error{ErrNoData, ErrBadTarget, ErrNonFinite, mat.ErrSingular, mat.ErrShape} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("finite input X=%v y=%v %+v: untyped error %v", X, y, opts, err)
		}
		for j, c := range reg.Coef {
			if !finite(c) {
				t.Fatalf("finite input X=%v y=%v %+v: coefficient %d = %v", X, y, opts, j, c)
			}
		}
	})
}

func hasNonFinite(X [][]float64, y []float64) bool {
	for i, row := range X {
		if !finite(y[i]) {
			return true
		}
		for _, v := range row {
			if !finite(v) {
				return true
			}
		}
	}
	return false
}
