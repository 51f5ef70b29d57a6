package hierarchy

import (
	"math"
	"sync"
	"testing"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/rts"
)

var (
	setupOnce sync.Once
	setupErr  error
	gModel    *core.Model
	gApps     map[string][]kernels.Kernel
)

// sharedModel trains one model (on SMC+LU) and prepares two node apps:
// a GPU-friendly one (CoMD) and a mixed one (LULESH Small).
func sharedModel(t testing.TB) (*core.Model, map[string][]kernels.Kernel) {
	t.Helper()
	setupOnce.Do(func() {
		var training []kernels.Kernel
		gApps = map[string][]kernels.Kernel{}
		for _, c := range kernels.Combos() {
			switch {
			case c.Benchmark == "CoMD" && c.Input == "Large":
				gApps["comd"] = c.Kernels
			case c.Benchmark == "LULESH" && c.Input == "Small":
				gApps["lulesh"] = c.Kernels
			case c.Benchmark == "SMC" || c.Benchmark == "LU":
				training = append(training, c.Kernels...)
			}
		}
		p := profiler.New()
		opts := core.DefaultTrainOptions()
		opts.Iterations = 1
		opts.K = 4 // SMC+LU alone: 11 profiles
		profs, err := core.Characterize(p, training, opts)
		if err != nil {
			setupErr = err
			return
		}
		gModel, setupErr = core.Train(p.Space, profs, opts)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return gModel, gApps
}

func newNode(t testing.TB, name string, app []kernels.Kernel, capW float64) *Node {
	t.Helper()
	m, _ := sharedModel(t)
	rt, err := rts.New(m, rts.Options{CapW: capW})
	if err != nil {
		t.Fatal(err)
	}
	return &Node{Name: name, Runtime: rt, App: app}
}

func twoNodeCluster(t *testing.T, p Policy, budget float64) *Cluster {
	t.Helper()
	_, apps := sharedModel(t)
	c, err := NewCluster([]*Node{
		newNode(t, "n0", apps["comd"], budget/2),
		newNode(t, "n1", apps["lulesh"], budget/2),
	}, budget, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPolicyString(t *testing.T) {
	if Uniform.String() != "uniform" || DemandProportional.String() != "demand-proportional" || WaterFill.String() != "water-fill" {
		t.Fatal("policy strings")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy renders empty")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, 100, Uniform); err == nil {
		t.Error("empty cluster accepted")
	}
	_, apps := sharedModel(t)
	n := newNode(t, "x", apps["comd"], 20)
	if _, err := NewCluster([]*Node{n, n, n, n, n, n, n, n, n, n, n}, 50, Uniform); err == nil {
		t.Error("budget below floor accepted")
	}
	if _, err := NewCluster([]*Node{{Name: "bad"}}, 100, Uniform); err == nil {
		t.Error("incomplete node accepted")
	}
	// A NaN budget compares false against the floor check and would
	// otherwise propagate NaN caps to every node.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewCluster([]*Node{n}, w, Uniform); err == nil {
			t.Errorf("non-finite budget %v accepted", w)
		}
	}
}

func TestUniformRebalance(t *testing.T) {
	c := twoNodeCluster(t, Uniform, 60)
	caps, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != 30 || caps[1] != 30 {
		t.Errorf("caps = %v", caps)
	}
	if math.Abs(c.TotalAssignedW()-60) > 1e-9 {
		t.Errorf("assigned = %v", c.TotalAssignedW())
	}
}

func TestStepRunsAllNodes(t *testing.T) {
	c := twoNodeCluster(t, Uniform, 60)
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	results, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.TimeSec <= 0 || r.EnergyJ <= 0 || r.Kernels == 0 {
			t.Errorf("result %+v", r)
		}
	}
}

func TestDemandProportionalRespectsBudget(t *testing.T) {
	c := twoNodeCluster(t, DemandProportional, 56)
	// Warm up so nodes have measurement history.
	for i := 0; i < 3; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	caps, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, cp := range caps {
		if cp < MinNodeCapW-1e-9 {
			t.Errorf("cap %v below floor", cp)
		}
		sum += cp
	}
	if sum > c.BudgetW+1e-6 {
		t.Errorf("caps %v exceed budget %v", caps, c.BudgetW)
	}
}

// TestDemandWMatchesFullHistory checks that DemandW, which reads only
// the runtime's retained steps, is bitwise the mean power of the last
// len(App) steps RunKernel returned, and unavailable before a full
// window has run.
func TestDemandWMatchesFullHistory(t *testing.T) {
	c := twoNodeCluster(t, Uniform, 56)
	history := make([][]rts.Step, len(c.Nodes))
	compared := 0
	for round := 0; round < 3; round++ {
		for i, n := range c.Nodes {
			steps, window := history[i], len(n.App)
			v := View(n)
			got, ok := v.DemandW, v.DemandOK
			if len(steps) < window {
				if ok {
					t.Errorf("%s, round %d: demand %v from %d of %d steps", n.Name, round, got, len(steps), window)
				}
				continue
			}
			var sum float64
			for _, s := range steps[len(steps)-window:] {
				sum += s.PowerW
			}
			if want := sum / float64(window); !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, round %d: demand %v, %v; want %v", n.Name, round, got, ok, want)
			}
			compared++
		}
		for i, n := range c.Nodes {
			for _, k := range n.App {
				s, err := n.Runtime.RunKernel(k)
				if err != nil {
					t.Fatal(err)
				}
				history[i] = append(history[i], s)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no node ever ran a full window")
	}
}

// TestViewIsASnapshot checks that a view holds the node's demand and
// curve as they were when it was taken: steps run afterwards, an
// adaptation among them, change what a new view sees but not the old
// view.
func TestViewIsASnapshot(t *testing.T) {
	_, apps := sharedModel(t)
	n := newNode(t, "n0", apps["comd"], 28)
	run := func() {
		for _, k := range n.App {
			if _, err := n.Runtime.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // first sample iteration: a full demand window, nothing adapted
	v := View(n)
	if !v.DemandOK || len(v.Curve.Breakpoints) != 0 {
		t.Fatalf("after one timestep: demand ok %v, %d breakpoints", v.DemandOK, len(v.Curve.Breakpoints))
	}
	demand := v.DemandW
	run() // second sample iteration: every kernel adapts
	run() // pinned
	now := View(n)
	if math.Float64bits(now.DemandW) == math.Float64bits(demand) || len(now.Curve.Breakpoints) == 0 {
		t.Fatalf("later steps moved nothing: demand %v, %d breakpoints", now.DemandW, len(now.Curve.Breakpoints))
	}
	if math.Float64bits(v.DemandW) != math.Float64bits(demand) {
		t.Fatalf("view demand moved from %v to %v after it was taken", demand, v.DemandW)
	}
	if len(v.Curve.Breakpoints) != 0 {
		t.Fatalf("view curve gained %d breakpoints after it was taken", len(v.Curve.Breakpoints))
	}
}

func TestWaterFillFavorsHungrierNode(t *testing.T) {
	// After adaptation, the CoMD node (GPU-heavy, high power demand for
	// its performance) should receive a different share than the
	// LULESH Small node; total must respect the budget and floor.
	c := twoNodeCluster(t, WaterFill, 56)
	for i := 0; i < 3; i++ { // adapt all kernels (2 sampling + 1 pinned)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	caps, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, cp := range caps {
		if cp < MinNodeCapW-1e-9 {
			t.Errorf("cap %v below floor", cp)
		}
		sum += cp
	}
	if math.Abs(sum-c.BudgetW) > 1e-6 {
		t.Errorf("water-fill total %v != budget %v", sum, c.BudgetW)
	}
	if math.Abs(caps[0]-caps[1]) < 0.5 {
		t.Errorf("water-fill did not differentiate nodes: %v", caps)
	}
	t.Logf("water-fill caps: comd=%.1f lulesh=%.1f", caps[0], caps[1])
}

func TestWaterFillBeatsUniformOnPredictedUtility(t *testing.T) {
	// The point of the policy: at equal budget, water-filling should
	// achieve at least the uniform division's total predicted utility.
	cu := twoNodeCluster(t, Uniform, 56)
	cw := twoNodeCluster(t, WaterFill, 56)
	for i := 0; i < 3; i++ {
		if _, err := cu.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := cw.Step(); err != nil {
			t.Fatal(err)
		}
	}
	capsU, err := cu.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	capsW, err := cw.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	utility := func(c *Cluster, caps []float64) float64 {
		total := 0.0
		for i, n := range c.Nodes {
			total += View(n).Curve.At(caps[i])
		}
		return total
	}
	// Evaluate both divisions on the water-fill cluster's curves (same
	// model, same apps, so curves are comparable).
	u := utility(cw, capsU)
	w := utility(cw, capsW)
	if w < u-1e-9 {
		t.Errorf("water-fill utility %v below uniform %v", w, u)
	}
	t.Logf("predicted utility: uniform %.3f, water-fill %.3f", u, w)
}

func TestRebalanceAfterBudgetChange(t *testing.T) {
	c := twoNodeCluster(t, Uniform, 60)
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	c.BudgetW = 40
	caps, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != 20 || caps[1] != 20 {
		t.Errorf("caps after shrink = %v", caps)
	}
}

func TestStepDeterministic(t *testing.T) {
	run := func() float64 {
		c := twoNodeCluster(t, Uniform, 60)
		if _, err := c.Rebalance(); err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i := 0; i < 2; i++ {
			rs, err := c.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				total += r.EnergyJ
			}
		}
		return total
	}
	if run() != run() {
		t.Error("cluster stepping not deterministic")
	}
}

func BenchmarkClusterStep(b *testing.B) {
	var training []kernels.Kernel
	apps := map[string][]kernels.Kernel{}
	for _, c := range kernels.Combos() {
		switch {
		case c.Benchmark == "CoMD" && c.Input == "Large":
			apps["comd"] = c.Kernels
		case c.Benchmark == "LULESH" && c.Input == "Small":
			apps["lulesh"] = c.Kernels
		case c.Benchmark == "SMC" || c.Benchmark == "LU":
			training = append(training, c.Kernels...)
		}
	}
	p := profiler.New()
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	opts.K = 4
	profs, err := core.Characterize(p, training, opts)
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.Train(p.Space, profs, opts)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(name string, app []kernels.Kernel) *Node {
		rt, err := rts.New(model, rts.Options{CapW: 28})
		if err != nil {
			b.Fatal(err)
		}
		return &Node{Name: name, Runtime: rt, App: app}
	}
	c, err := NewCluster([]*Node{mk("a", apps["comd"]), mk("b", apps["lulesh"])}, 56, WaterFill)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFourNodeClusterScales(t *testing.T) {
	_, apps := sharedModel(t)
	nodes := []*Node{
		newNode(t, "n0", apps["comd"], 25),
		newNode(t, "n1", apps["lulesh"], 25),
		newNode(t, "n2", apps["comd"], 25),
		newNode(t, "n3", apps["lulesh"], 25),
	}
	c, err := NewCluster(nodes, 100, WaterFill)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	caps, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, cp := range caps {
		if cp < MinNodeCapW-1e-9 {
			t.Errorf("cap %v below floor", cp)
		}
		sum += cp
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("caps sum to %v, budget 100", sum)
	}
	// Identical apps should get similar caps (same utility curves;
	// greedy allocation may leave the last funded breakpoint asymmetric
	// when the budget runs out mid-round, so allow a couple of watts).
	if math.Abs(caps[0]-caps[2]) > 2.5 || math.Abs(caps[1]-caps[3]) > 2.5 {
		t.Errorf("identical nodes diverged: %v", caps)
	}
	results, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
}
