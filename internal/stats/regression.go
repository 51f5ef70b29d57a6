// Package stats implements the statistical machinery of the modeling
// pipeline: multivariate ordinary-least-squares regression with
// first-order interaction terms (the paper's per-cluster power and
// performance models), the Kendall rank correlation coefficient used
// to compare Pareto-frontier orderings, and the descriptive statistics
// used throughout the evaluation harness.
package stats

import (
	"errors"
	"fmt"
	"math"

	"acsel/internal/mat"
)

// Regression is a fitted multivariate linear model
//
//	y ≈ b0·[intercept] + Σ bi·xi (+ Σ bij·xi·xj first-order interactions)
//
// matching the formulation in §III-B of the paper. The performance
// models omit the intercept (pure scaling relative to the sample
// configuration); the power models include it.
type Regression struct {
	// Coef holds the fitted coefficients in design-column order.
	Coef []float64
	// Intercept reports whether column 0 of the design is the constant 1.
	Intercept bool
	// Interactions reports whether pairwise products were appended.
	Interactions bool
	// NumVars is the number of raw predictor variables.
	NumVars int
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// ResidualStd is the standard deviation of training residuals; the
	// variance-aware scheduler (paper §VI) uses it as a per-model
	// uncertainty estimate.
	ResidualStd float64
	// LogTarget reports whether the model was fitted to log(y) — the
	// variance-stabilizing transformation from the paper's future work.
	LogTarget bool
	// N is the number of training observations.
	N int
}

// RegressionOptions selects model structure.
type RegressionOptions struct {
	// Intercept adds a constant term (power models: true; performance
	// scaling models: false).
	Intercept bool
	// Interactions appends all first-order pairwise products xi·xj, i<j.
	Interactions bool
	// LogTarget fits log(y) instead of y. Requires strictly positive
	// targets; predictions are transformed back with exp.
	LogTarget bool
}

// ErrNoData is returned when a fit is attempted without observations.
var ErrNoData = errors.New("stats: no observations")

// ErrBadTarget is returned when LogTarget is set but a target is
// non-positive.
var ErrBadTarget = errors.New("stats: non-positive target with LogTarget")

// ErrNonFinite is returned when a feature or target is NaN or ±Inf, or
// when finite inputs so large that the solve overflows leave a fitted
// coefficient non-finite. Without it one bad sample silently yields
// NaN coefficients and NaN predictions.
var ErrNonFinite = errors.New("stats: non-finite value")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkCoef rejects a fit whose coefficients overflowed.
func checkCoef(coef []float64) error {
	for j, c := range coef {
		if !finite(c) {
			return fmt.Errorf("%w: fitted coefficient %d = %v", ErrNonFinite, j, c)
		}
	}
	return nil
}

// designWidth returns the number of columns the design matrix will have
// for nvars raw variables under opts.
func designWidth(nvars int, opts RegressionOptions) int {
	w := nvars
	if opts.Interactions {
		w += nvars * (nvars - 1) / 2
	}
	if opts.Intercept {
		w++
	}
	return w
}

// designRow expands a raw feature vector into a design row under opts.
// Layout: [1?] x1..xn [x1x2 x1x3 ... x(n-1)xn?].
func designRow(x []float64, opts RegressionOptions) []float64 {
	row := make([]float64, 0, designWidth(len(x), opts))
	if opts.Intercept {
		row = append(row, 1)
	}
	row = append(row, x...)
	if opts.Interactions {
		for i := 0; i < len(x); i++ {
			for j := i + 1; j < len(x); j++ {
				row = append(row, x[i]*x[j])
			}
		}
	}
	return row
}

// FitRegression fits an OLS model to observations X (rows of raw
// features) and targets y. All rows must share a length, and every
// value must be finite (ErrNonFinite otherwise).
func FitRegression(X [][]float64, y []float64, opts RegressionOptions) (*Regression, error) {
	if len(X) == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("stats: %d feature rows but %d targets", len(X), len(y))
	}
	nvars := len(X[0])
	for i, row := range X {
		if len(row) != nvars {
			return nil, fmt.Errorf("stats: row %d has %d features, want %d", i, len(row), nvars)
		}
		for j, v := range row {
			if !finite(v) {
				return nil, fmt.Errorf("%w: X[%d][%d]=%v", ErrNonFinite, i, j, v)
			}
		}
		if !finite(y[i]) {
			return nil, fmt.Errorf("%w: y[%d]=%v", ErrNonFinite, i, y[i])
		}
	}
	width := designWidth(nvars, opts)
	n := len(X)
	if n < width {
		// Pad with ridge-like duplicate? No: fall back to a reduced model
		// is handled by pivoted QR's rank handling, but QR needs n >= cols.
		// Augment with tiny Tikhonov rows to keep the solve well-posed.
		return fitRidgeAugmented(X, y, opts, nvars, width)
	}

	design := mat.NewDense(n, width, nil)
	target := make([]float64, n)
	for i, row := range X {
		d := designRow(row, opts)
		for j, v := range d {
			design.Set(i, j, v)
		}
		t := y[i]
		if opts.LogTarget {
			if t <= 0 {
				return nil, fmt.Errorf("%w: y[%d]=%v", ErrBadTarget, i, t)
			}
			t = math.Log(t)
		}
		target[i] = t
	}
	coef, err := mat.LeastSquares(design, target)
	if err != nil {
		return nil, err
	}
	if err := checkCoef(coef); err != nil {
		return nil, err
	}
	r := &Regression{
		Coef:         coef,
		Intercept:    opts.Intercept,
		Interactions: opts.Interactions,
		NumVars:      nvars,
		LogTarget:    opts.LogTarget,
		N:            n,
	}
	r.finishFitStats(design, target)
	return r, nil
}

// fitRidgeAugmented handles the under-determined case (fewer
// observations than design columns) by appending λ·I rows, i.e. a tiny
// ridge penalty. This arises for very small clusters during
// leave-one-out cross-validation.
func fitRidgeAugmented(X [][]float64, y []float64, opts RegressionOptions, nvars, width int) (*Regression, error) {
	const lambda = 1e-6
	n := len(X)
	design := mat.NewDense(n+width, width, nil)
	target := make([]float64, n+width)
	for i, row := range X {
		d := designRow(row, opts)
		for j, v := range d {
			design.Set(i, j, v)
		}
		t := y[i]
		if opts.LogTarget {
			if t <= 0 {
				return nil, fmt.Errorf("%w: y[%d]=%v", ErrBadTarget, i, t)
			}
			t = math.Log(t)
		}
		target[i] = t
	}
	for j := 0; j < width; j++ {
		design.Set(n+j, j, lambda)
	}
	coef, err := mat.LeastSquares(design, target)
	if err != nil {
		return nil, err
	}
	if err := checkCoef(coef); err != nil {
		return nil, err
	}
	r := &Regression{
		Coef:         coef,
		Intercept:    opts.Intercept,
		Interactions: opts.Interactions,
		NumVars:      nvars,
		LogTarget:    opts.LogTarget,
		N:            n,
	}
	// Fit statistics on the real observations only.
	realDesign := mat.NewDense(n, width, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			realDesign.Set(i, j, design.At(i, j))
		}
	}
	r.finishFitStats(realDesign, target[:n])
	return r, nil
}

func (r *Regression) finishFitStats(design *mat.Dense, target []float64) {
	pred, _ := mat.MulVec(design, r.Coef)
	mean := Mean(target)
	ssTot, ssRes := 0.0, 0.0
	for i := range target {
		d := target[i] - mean
		ssTot += d * d
		e := target[i] - pred[i]
		ssRes += e * e
	}
	if ssTot > 0 {
		r.R2 = 1 - ssRes/ssTot
	} else {
		r.R2 = 1 // constant target perfectly fit by intercept or degenerate
	}
	if len(target) > 0 {
		r.ResidualStd = math.Sqrt(ssRes / float64(len(target)))
	}
}

// Predict evaluates the model at raw feature vector x.
func (r *Regression) Predict(x []float64) (float64, error) {
	if len(x) != r.NumVars {
		return 0, fmt.Errorf("stats: predict with %d features, model has %d", len(x), r.NumVars)
	}
	row := designRow(x, RegressionOptions{Intercept: r.Intercept, Interactions: r.Interactions})
	if len(row) != len(r.Coef) {
		return 0, fmt.Errorf("stats: design width %d != coef %d", len(row), len(r.Coef))
	}
	v := mat.Dot(row, r.Coef)
	if r.LogTarget {
		v = math.Exp(v)
	}
	return v, nil
}

// PredictWithStd evaluates the model and returns the training residual
// standard deviation as a crude prediction-uncertainty proxy, used by
// the variance-aware selection extension.
func (r *Regression) PredictWithStd(x []float64) (pred, std float64, err error) {
	pred, err = r.Predict(x)
	if err != nil {
		return 0, 0, err
	}
	std = r.ResidualStd
	if r.LogTarget {
		// Delta method: std on the original scale scales with the prediction.
		std = pred * r.ResidualStd
	}
	return pred, std, nil
}
