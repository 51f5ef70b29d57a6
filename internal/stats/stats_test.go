package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitRegressionExactLinear(t *testing.T) {
	// y = 3 + 2a − b, with intercept, no interactions.
	X := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {4, 1}}
	y := make([]float64, len(X))
	for i, r := range X {
		y[i] = 3 + 2*r[0] - r[1]
	}
	m, err := FitRegression(X, y, RegressionOptions{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	if !near(m.Coef[0], 3, 1e-9) || !near(m.Coef[1], 2, 1e-9) || !near(m.Coef[2], -1, 1e-9) {
		t.Errorf("coef = %v", m.Coef)
	}
	if m.R2 < 0.999999 {
		t.Errorf("R2 = %v", m.R2)
	}
	p, err := m.Predict([]float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !near(p, 3+10-5, 1e-9) {
		t.Errorf("Predict = %v", p)
	}
}

func TestFitRegressionInteractions(t *testing.T) {
	// y = a·b exactly: only the interaction term should carry weight.
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		a, b := rng.Float64()*4, rng.Float64()*4
		X = append(X, []float64{a, b})
		y = append(y, a*b)
	}
	m, err := FitRegression(X, y, RegressionOptions{Intercept: true, Interactions: true})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := m.Predict([]float64{2, 3})
	if !near(p, 6, 1e-6) {
		t.Errorf("Predict(2,3) = %v want 6", p)
	}
}

func TestFitRegressionNoIntercept(t *testing.T) {
	// y = 4x, model without intercept should recover slope exactly.
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{4, 8, 12}
	m, err := FitRegression(X, y, RegressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Coef) != 1 || !near(m.Coef[0], 4, 1e-9) {
		t.Errorf("coef = %v", m.Coef)
	}
}

func TestFitRegressionLogTarget(t *testing.T) {
	// y = exp(1 + 2x): log fit recovers it exactly.
	X := [][]float64{{0}, {0.5}, {1}, {1.5}, {2}}
	y := make([]float64, len(X))
	for i, r := range X {
		y[i] = math.Exp(1 + 2*r[0])
	}
	m, err := FitRegression(X, y, RegressionOptions{Intercept: true, LogTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := m.Predict([]float64{3})
	if !near(p, math.Exp(7), 1e-4*math.Exp(7)) {
		t.Errorf("Predict = %v want %v", p, math.Exp(7))
	}
}

func TestFitRegressionLogTargetRejectsNonPositive(t *testing.T) {
	if _, err := FitRegression([][]float64{{1}, {2}}, []float64{1, 0}, RegressionOptions{LogTarget: true}); err == nil {
		t.Fatal("expected ErrBadTarget")
	}
}

func TestFitRegressionErrors(t *testing.T) {
	if _, err := FitRegression(nil, nil, RegressionOptions{}); err == nil {
		t.Fatal("expected ErrNoData")
	}
	if _, err := FitRegression([][]float64{{1}}, []float64{1, 2}, RegressionOptions{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := FitRegression([][]float64{{1}, {1, 2}}, []float64{1, 2}, RegressionOptions{}); err == nil {
		t.Fatal("expected ragged-row error")
	}
}

func TestFitRegressionUnderdeterminedRidge(t *testing.T) {
	// 2 observations, 3 design columns (intercept + 2 vars): the ridge
	// fallback must produce a finite, sane model.
	X := [][]float64{{1, 2}, {2, 1}}
	y := []float64{5, 4}
	m, err := FitRegression(X, y, RegressionOptions{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coefficient %v", m.Coef)
		}
	}
	// It should interpolate the two points closely.
	for i, r := range X {
		p, _ := m.Predict(r)
		if !near(p, y[i], 1e-3) {
			t.Errorf("pred[%d] = %v want %v", i, p, y[i])
		}
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	m, err := FitRegression([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3}, RegressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestPredictWithStd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x := rng.Float64() * 10
		X = append(X, []float64{x})
		y = append(y, 2*x+rng.NormFloat64()) // unit noise
	}
	m, err := FitRegression(X, y, RegressionOptions{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	_, std, err := m.PredictWithStd([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if std < 0.5 || std > 2 {
		t.Errorf("residual std = %v, want ≈1", std)
	}
}

func TestKendallTauPerfectAgreement(t *testing.T) {
	tau, err := KendallTau([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	if !near(tau, 1, 1e-12) {
		t.Errorf("tau = %v want 1", tau)
	}
}

func TestKendallTauPerfectDisagreement(t *testing.T) {
	tau, err := KendallTau([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !near(tau, -1, 1e-12) {
		t.Errorf("tau = %v want -1", tau)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// Classic example: one discordant pair among n=4.
	// x: 1,2,3,4  y: 1,2,4,3 → C=5, D=1, tau = 4/6.
	tau, err := KendallTau([]float64{1, 2, 3, 4}, []float64{1, 2, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !near(tau, 4.0/6.0, 1e-12) {
		t.Errorf("tau = %v want %v", tau, 4.0/6.0)
	}
}

func TestKendallTauWithTies(t *testing.T) {
	// tau-b handles ties; all-tied x yields denominator 0 → τ=0.
	tau, err := KendallTau([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tau != 0 {
		t.Errorf("tau = %v want 0 for fully tied x", tau)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected ErrTooFew")
	}
	if _, err := KendallTau([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestKendallTauRanks(t *testing.T) {
	tau, err := KendallTauRanks([]int{0, 1, 2}, []int{0, 1, 2})
	if err != nil || !near(tau, 1, 1e-12) {
		t.Errorf("tau = %v err=%v", tau, err)
	}
}

// Property: τ is symmetric and bounded in [−1, 1] for random rankings.
func TestKendallTauProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(6)) // allow ties
			y[i] = float64(rng.Intn(6))
		}
		t1, err1 := KendallTau(x, y)
		t2, err2 := KendallTau(y, x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !near(t1, t2, 1e-12) {
			t.Fatalf("asymmetric tau: %v vs %v", t1, t2)
		}
		if t1 < -1-1e-12 || t1 > 1+1e-12 {
			t.Fatalf("tau out of range: %v", t1)
		}
	}
}

func TestRankDissimilarity(t *testing.T) {
	if d := RankDissimilarity(1); d != 0 {
		t.Errorf("d(1) = %v", d)
	}
	if d := RankDissimilarity(-1); d != 1 {
		t.Errorf("d(-1) = %v", d)
	}
	if d := RankDissimilarity(0); d != 0.5 {
		t.Errorf("d(0) = %v", d)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if m := Mean([]float64{1, 2, 3}); !near(m, 2, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); !near(m, 2.5, 1e-12) {
		t.Errorf("even median = %v", m)
	}
	if Median(nil) != 0 {
		t.Error("Median(nil)")
	}
	// Median must not mutate its argument.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated input")
	}
}

// Property (testing/quick): mean is bounded by min and max.
func TestMeanBounded(t *testing.T) {
	f := func(a [7]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				a[i] = 0
			}
			a[i] = math.Mod(a[i], 1e9)
		}
		m := Mean(a[:])
		return m >= slices.Min(a[:])-1e-6 && m <= slices.Max(a[:])+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: regression trained on linearly generated data predicts the
// generator within tolerance at unseen points.
func TestRegressionRecoversGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		b0, b1, b2 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		var X [][]float64
		var y []float64
		for i := 0; i < 25; i++ {
			a, b := rng.Float64()*5, rng.Float64()*5
			X = append(X, []float64{a, b})
			y = append(y, b0+b1*a+b2*b)
		}
		m, err := FitRegression(X, y, RegressionOptions{Intercept: true})
		if err != nil {
			t.Fatal(err)
		}
		a, b := rng.Float64()*5, rng.Float64()*5
		p, _ := m.Predict([]float64{a, b})
		want := b0 + b1*a + b2*b
		if !near(p, want, 1e-6*(1+math.Abs(want))) {
			t.Fatalf("trial %d: predict %v want %v", trial, p, want)
		}
	}
}

func BenchmarkKendallTau(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 13 // typical shared-frontier length
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KendallTau(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegressionPredict(b *testing.B) {
	m, err := FitRegression(
		[][]float64{{1, 1, 0}, {2, 1, 0}, {3, 2, 1}, {1, 4, 1}, {2, 2, 2}, {3, 3, 3}, {0.5, 1, 2}},
		[]float64{1, 2, 3, 4, 5, 6, 7},
		RegressionOptions{Intercept: true, Interactions: true})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{2.4, 3, 0.3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}
