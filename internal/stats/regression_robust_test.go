package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestFitRegressionRejectsNonFinite: a NaN or ±Inf feature or target
// must fail with ErrNonFinite naming the offending row, on the
// least-squares path and the under-determined ridge path, with and
// without LogTarget. Before the check a NaN or +Inf target gave NaN
// coefficients and a NaN feature a NaN ResidualStd, all without error.
func TestFitRegressionRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	shapes := []struct {
		name string
		X    [][]float64
		y    []float64
	}{
		{"least-squares", [][]float64{{1, 2}, {2, 1}, {3, 5}, {4, 3}, {5, 4}}, []float64{3, 4, 8, 9, 11}},
		{"ridge", [][]float64{{1, 2}, {2, 1}}, []float64{5, 4}},
	}
	const row = 1
	for _, sh := range shapes {
		for _, logTarget := range []bool{false, true} {
			for _, v := range bad {
				for _, where := range []string{"target", "feature"} {
					name := fmt.Sprintf("%s/log=%v/%s=%v", sh.name, logTarget, where, v)
					t.Run(name, func(t *testing.T) {
						X := make([][]float64, len(sh.X))
						for i, r := range sh.X {
							X[i] = append([]float64(nil), r...)
						}
						y := append([]float64(nil), sh.y...)
						want := fmt.Sprintf("y[%d]", row)
						if where == "target" {
							y[row] = v
						} else {
							X[row][1] = v
							want = fmt.Sprintf("X[%d][1]", row)
						}
						m, err := FitRegression(X, y, RegressionOptions{Intercept: true, LogTarget: logTarget})
						if !errors.Is(err, ErrNonFinite) {
							t.Fatalf("got model %+v, err %v; want ErrNonFinite", m, err)
						}
						if !strings.Contains(err.Error(), want) {
							t.Errorf("error %q does not name %s", err, want)
						}
					})
				}
			}
		}
	}
}

// TestFitRegressionConstantFeature: a counter that never varies makes
// the design rank-deficient alongside the intercept. Pivoted QR must
// still fit, with finite coefficients that reproduce the targets.
func TestFitRegressionConstantFeature(t *testing.T) {
	X := [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}}
	linear := []float64{2.5, 3, 3.5, 4, 4.5} // 2 + 0.5·x0
	expo := make([]float64, len(X))          // exp(0.2 + 0.1·x0)
	for i, r := range X {
		expo[i] = math.Exp(0.2 + 0.1*r[0])
	}
	for _, tc := range []struct {
		opts RegressionOptions
		y    []float64
	}{
		{RegressionOptions{Intercept: true}, linear},
		{RegressionOptions{Intercept: true, Interactions: true}, linear},
		{RegressionOptions{}, linear}, // the constant column stands in for the intercept
		{RegressionOptions{Intercept: true, LogTarget: true}, expo},
	} {
		opts, y := tc.opts, tc.y
		m, err := FitRegression(X, y, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for _, c := range m.Coef {
			if !finite(c) {
				t.Fatalf("%+v: non-finite coefficient in %v", opts, m.Coef)
			}
		}
		if !finite(m.ResidualStd) || !finite(m.R2) {
			t.Errorf("%+v: fit stats ResidualStd=%v R2=%v", opts, m.ResidualStd, m.R2)
		}
		for i, r := range X {
			p, err := m.Predict(r)
			if err != nil {
				t.Fatal(err)
			}
			if !near(p, y[i], 1e-6) {
				t.Errorf("%+v: pred[%d] = %v, want %v", opts, i, p, y[i])
			}
		}
	}
}
