package stats

import (
	"errors"
	"math"
	"testing"

	"acsel/internal/mat"
)

// TestFitRegressionNearRankDeficient pins how a fit treats a feature
// that is a rounding-level copy of another: the third feature is the
// first scaled by 1+1e-13, so the design is rank-deficient to working
// precision. Pivoted QR must drop one of each pair of copies
// (coefficient exactly 0, every coefficient finite) and predict what
// the fit without the third feature predicts, with and without
// interaction terms. Which copy goes is the pivot's choice: x3's norm
// is larger by the 1e-13, so x1's column is the one ranked dependent.
func TestFitRegressionNearRankDeficient(t *testing.T) {
	const n = 20
	var X, reduced [][]float64
	var y []float64
	for i := range n {
		x1 := 1 + 0.37*float64(i)
		x2 := 0.5 + float64((7*i)%11)
		X = append(X, []float64{x1, x2, x1 * (1 + 1e-13)})
		reduced = append(reduced, []float64{x1, x2})
		y = append(y, 1.5+2*x1-0.7*x2+0.25*x1*x2)
	}
	for _, inter := range []bool{false, true} {
		opts := RegressionOptions{Intercept: true, Interactions: inter}
		full, err := FitRegression(X, y, opts)
		if err != nil {
			t.Fatalf("interactions=%v: %v", inter, err)
		}
		base, err := FitRegression(reduced, y, opts)
		if err != nil {
			t.Fatalf("interactions=%v, reduced: %v", inter, err)
		}
		for j, c := range full.Coef {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("interactions=%v: coefficient %d = %v", inter, j, c)
			}
		}
		// Design layout: [1, x1, x2, x3, x1x2, x1x3, x2x3]; x1 and x3
		// are copies, and so are x1x2 and x2x3.
		pairs := [][2]int{{1, 3}}
		if inter {
			pairs = append(pairs, [2]int{4, 6})
		}
		for _, p := range pairs {
			a, b := full.Coef[p[0]], full.Coef[p[1]]
			if a != 0 && b != 0 {
				t.Errorf("interactions=%v: copies %d and %d have coefficients %v and %v, want one exactly 0", inter, p[0], p[1], a, b)
			}
		}
		maxDiff := 0.0
		for i := range X {
			got, err := full.Predict(X[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := base.Predict(reduced[i])
			if err != nil {
				t.Fatal(err)
			}
			maxDiff = math.Max(maxDiff, math.Abs(got-want))
		}
		if maxDiff > 1e-12 {
			t.Errorf("interactions=%v: predictions differ from the fit without the copy by %g, want <= 1e-12", inter, maxDiff)
		}
	}
}

// TestFitRegressionAllZeroDesign: with no intercept an all-zero design
// has rank 0, and the fit must fail with mat.ErrSingular rather than
// return zero or non-finite coefficients.
func TestFitRegressionAllZeroDesign(t *testing.T) {
	X := make([][]float64, 5)
	y := make([]float64, 5)
	for i := range X {
		X[i] = []float64{0, 0}
		y[i] = float64(i)
	}
	if _, err := FitRegression(X, y, RegressionOptions{}); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("all-zero design: err = %v, want mat.ErrSingular", err)
	}
}
