package hierarchy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/rts"
	"acsel/internal/stats"
)

// rawPredictions rebuilds each adapted kernel's predictions from the
// runtime's snapshot with core.Model.PredictAll, exactly as Restore
// does, so the oracles below read the numbers the runtime selects among
// without going through its compiled selectors. Every runtime in these
// tests runs the shared model.
func rawPredictions(t testing.TB, rt *rts.Runtime) map[string][]core.Prediction {
	t.Helper()
	m, _ := sharedModel(t)
	out := map[string][]core.Prediction{}
	for _, kc := range rt.Snapshot().Kernels {
		if !kc.Adapted {
			continue
		}
		preds, _, err := m.PredictAll(core.SampleRuns{CPU: kc.CPUSample, GPU: kc.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		out[kc.Key] = preds
	}
	return out
}

// nodeUtilityCurve is the reference evaluation of a node's utility
// curve that the swept Curve replaces, kept as its oracle: for each
// adapted kernel, the best predicted performance under the cap divided
// by its best predicted performance overall, weighted by the kernel's
// time share, re-evaluated from the predictions at every call.
func nodeUtilityCurve(t testing.TB, node *Node) func(float64) float64 {
	type kernelPreds struct {
		weight  float64
		perf    []float64 // predicted perf per config
		power   []float64
		maxPerf float64
	}
	var ks []kernelPreds
	shareOf := map[string]float64{}
	for _, k := range node.App {
		shareOf[k.ID()] = k.TimeShare
	}
	raw := rawPredictions(t, node.Runtime)
	for _, key := range node.Runtime.AdaptedKernels() {
		preds, ok := raw[key]
		if !ok {
			continue
		}
		weight, known := shareOf[key]
		if !known || stats.AlmostZero(weight) {
			weight = 1.0 / float64(len(node.App))
		}
		kp := kernelPreds{weight: weight}
		for _, p := range preds {
			kp.perf = append(kp.perf, p.Perf)
			kp.power = append(kp.power, p.PowerW)
			if p.Perf > kp.maxPerf {
				kp.maxPerf = p.Perf
			}
		}
		ks = append(ks, kp)
	}
	if len(ks) == 0 {
		return func(float64) float64 { return 0 }
	}
	return func(capW float64) float64 {
		total := 0.0
		for _, kp := range ks {
			best := 0.0
			for i := range kp.perf {
				if kp.power[i] <= capW && kp.perf[i] > best {
					best = kp.perf[i]
				}
			}
			if kp.maxPerf > 0 {
				total += kp.weight * best / kp.maxPerf
			}
		}
		return total
	}
}

// allPowers is every distinct predicted power of the node's adapted
// kernels, ascending: the caps at which the oracle can jump.
func allPowers(t testing.TB, node *Node) []float64 {
	seen := map[float64]bool{}
	var bps []float64
	raw := rawPredictions(t, node.Runtime)
	for _, key := range node.Runtime.AdaptedKernels() {
		for _, p := range raw[key] {
			if !seen[p.PowerW] {
				seen[p.PowerW] = true
				bps = append(bps, p.PowerW)
			}
		}
	}
	sort.Float64s(bps)
	return bps
}

// oracleView is a node as the dividers saw it before the swept curve:
// the oracle sampled at every predicted power, flat steps included.
func oracleView(t testing.TB, n *Node) NodeView {
	v := View(n)
	u := nodeUtilityCurve(t, n)
	v.Curve = Curve{Breakpoints: allPowers(t, n)}
	for _, bp := range v.Curve.Breakpoints {
		v.Curve.Utility = append(v.Curve.Utility, u(bp))
	}
	return v
}

// probeCaps is where a curve is compared with the oracle: every
// predicted power, the next float on both sides of it, the midpoints
// between neighbours, zero and +Inf.
func probeCaps(bps []float64) []float64 {
	caps := []float64{0, math.Inf(1)}
	for i, bp := range bps {
		caps = append(caps, bp, math.Nextafter(bp, math.Inf(-1)), math.Nextafter(bp, math.Inf(1)))
		if i > 0 {
			caps = append(caps, (bps[i-1]+bp)/2)
		}
	}
	return caps
}

// checkCurve compares a node's cached curve with the oracle bit for bit
// at every probe cap, and checks the curve's shape: strictly
// increasing breakpoints and utilities, the first utility positive.
func checkCurve(t *testing.T, stage string, n *Node) {
	t.Helper()
	c := View(n).Curve
	oracle := nodeUtilityCurve(t, n)
	bps := allPowers(t, n)
	for _, capW := range probeCaps(bps) {
		if got, want := c.At(capW), oracle(capW); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, %s: At(%v) = %v, oracle %v", stage, n.Name, capW, got, want)
		}
	}
	if len(c.Breakpoints) != len(c.Utility) {
		t.Fatalf("%s, %s: %d breakpoints, %d utilities", stage, n.Name, len(c.Breakpoints), len(c.Utility))
	}
	for j := range c.Breakpoints {
		if j == 0 && !(c.Utility[0] > 0) {
			t.Fatalf("%s, %s: first kept utility %v is not a rise from 0", stage, n.Name, c.Utility[0])
		}
		if j > 0 && (!(c.Breakpoints[j] > c.Breakpoints[j-1]) || !(c.Utility[j] > c.Utility[j-1])) {
			t.Fatalf("%s, %s: breakpoint %d does not rise", stage, n.Name, j)
		}
	}
	if len(bps) > 0 && len(c.Breakpoints) == 0 {
		t.Fatalf("%s, %s: empty curve over %d predicted powers", stage, n.Name, len(bps))
	}
}

// checkDivideMatchesOracle divides several budgets over the nodes'
// views and over the oracle views and requires bitwise-equal caps:
// keeping only rising breakpoints does not change any division.
func checkDivideMatchesOracle(t *testing.T, stage string, nodes []*Node) {
	t.Helper()
	views := make([]NodeView, len(nodes))
	oracles := make([]NodeView, len(nodes))
	for i, n := range nodes {
		views[i], oracles[i] = View(n), oracleView(t, n)
	}
	for _, budget := range []float64{20, 31, 44.5, 56, 72, 100} {
		for _, p := range []Policy{Uniform, DemandProportional, WaterFill} {
			got, err := Divide(p, views, budget)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Divide(p, oracles, budget)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, %s, budget %v: node %d cap %v, oracle %v", stage, p, budget, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCurveMatchesOracleOnRuntimes walks two real nodes through every
// adaptation stage — nothing adapted, some kernels adapted, all
// adapted, and restored from a snapshot — and checks the cached curve
// and the water-fill division against the oracle at each.
func TestCurveMatchesOracleOnRuntimes(t *testing.T) {
	m, apps := sharedModel(t)
	nodes := []*Node{
		newNode(t, "n0", apps["comd"], 28),
		newNode(t, "n1", apps["lulesh"], 28),
	}
	run := func(n *Node, ks int) {
		for _, k := range n.App[:ks] {
			if _, err := n.Runtime.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string) {
		for _, n := range nodes {
			checkCurve(t, stage, n)
		}
		checkDivideMatchesOracle(t, stage, nodes)
	}

	for _, n := range nodes {
		run(n, len(n.App)) // first sample iteration of every kernel
	}
	check("none adapted")
	for _, n := range nodes {
		run(n, len(n.App)/2) // second sample: half the kernels adapt
	}
	check("some adapted")
	for _, n := range nodes {
		run(n, len(n.App))
		run(n, len(n.App))
	}
	check("all adapted")

	for i, n := range nodes {
		rt, err := rts.New(m, rts.Options{CapW: 28})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Restore(n.Runtime.Snapshot()); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &Node{Name: n.Name, Runtime: rt, App: n.App}
	}
	check("restored")
}

// TestCurveFollowsVarAwareRuntime: a runtime that selects with a
// variance-aware margin z = 1 only runs a configuration whose
// PowerW + PowerStd fits under its cap, so its curve promises at each
// cap exactly the performance of the configuration SelectAmong picks
// there with that margin, not the best bare PowerW would allow.
func TestCurveFollowsVarAwareRuntime(t *testing.T) {
	m, apps := sharedModel(t)
	const z = 1.0
	rt, err := rts.New(m, rts.Options{CapW: 28, VarAwareZ: z})
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{Name: "n0", Runtime: rt, App: apps["lulesh"]}
	for i := 0; i < 2; i++ {
		for _, k := range n.App {
			if _, err := rt.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	shareOf := map[string]float64{}
	for _, k := range n.App {
		shareOf[k.ID()] = k.TimeShare
	}
	type kernelPreds struct {
		weight  float64
		preds   []core.Prediction
		maxPerf float64
	}
	var ks []kernelPreds
	var bounds []float64
	raw := rawPredictions(t, rt)
	for _, key := range rt.AdaptedKernels() {
		preds := raw[key]
		kp := kernelPreds{weight: shareOf[key], preds: preds}
		if stats.AlmostZero(kp.weight) {
			kp.weight = 1.0 / float64(len(n.App))
		}
		for _, p := range preds {
			kp.maxPerf = max(kp.maxPerf, p.Perf)
			bounds = append(bounds, p.PowerW, p.PowerW+z*p.PowerStd)
		}
		ks = append(ks, kp)
	}
	if len(ks) == 0 {
		t.Fatal("no kernel adapted")
	}
	sort.Float64s(bounds)
	c, _ := n.UtilityCurve()
	differs := false
	for _, capW := range probeCaps(bounds) {
		want := 0.0
		for _, kp := range ks {
			sel, err := core.SelectAmong(kp.preds, 0, capW, z)
			if err != nil {
				t.Fatal(err)
			}
			best := 0.0
			if sel.MeetsCapPredicted {
				best = max(0, sel.Predicted.Perf)
			}
			want += kp.weight * best / kp.maxPerf
		}
		if got := c.At(capW); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("At(%v) = %v, selection with z = %v gives %v", capW, got, z, want)
		}
		differs = differs || nodeUtilityCurve(t, n)(capW) != want
	}
	if !differs {
		t.Fatal("the z = 1 curve equals the bare-power curve at every probe cap")
	}
}

// TestCurveRebuiltAfterAdaptation checks the cache: pinned iterations
// leave the runtime's generation, and so the cached curve itself, in
// place; a kernel adapting moves the generation and the next view sees
// a rebuilt curve that includes it.
func TestCurveRebuiltAfterAdaptation(t *testing.T) {
	_, apps := sharedModel(t)
	n := newNode(t, "n0", apps["comd"], 28)
	first, second := n.App[0], n.App[1]
	for i := 0; i < 3; i++ { // adapt and pin the first kernel
		if _, err := n.Runtime.RunKernel(first); err != nil {
			t.Fatal(err)
		}
	}
	before, adapted := n.UtilityCurve()
	if adapted != 1 || len(before.Breakpoints) == 0 {
		t.Fatalf("after one adaptation: %d adapted, %d breakpoints", adapted, len(before.Breakpoints))
	}
	gen := n.Runtime.Generation()
	if _, err := n.Runtime.RunKernel(first); err != nil { // pinned
		t.Fatal(err)
	}
	if _, err := n.Runtime.RunKernel(second); err != nil { // first sample
		t.Fatal(err)
	}
	if n.Runtime.Generation() != gen {
		t.Fatal("generation moved without an adaptation")
	}
	cached, _ := n.UtilityCurve()
	if &cached.Breakpoints[0] != &before.Breakpoints[0] {
		t.Fatal("curve rebuilt although no kernel adapted")
	}
	if _, err := n.Runtime.RunKernel(second); err != nil { // second sample: adapts
		t.Fatal(err)
	}
	if n.Runtime.Generation() == gen {
		t.Fatal("adaptation did not move the generation")
	}
	after, adapted := n.UtilityCurve()
	if adapted != 2 {
		t.Fatalf("after the second adaptation: %d adapted", adapted)
	}
	if len(after.Breakpoints) > 0 && &after.Breakpoints[0] == &before.Breakpoints[0] {
		t.Fatal("adaptation did not rebuild the curve")
	}
	checkCurve(t, "rebuilt", n)
}

// TestCurveUtilityNeverFallsAsCapRises is the metamorphic property of
// the paper's frontier: raising a node's cap only admits more
// configurations, so its predicted utility never drops.
func TestCurveUtilityNeverFallsAsCapRises(t *testing.T) {
	_, apps := sharedModel(t)
	for _, app := range []string{"comd", "lulesh"} {
		n := newNode(t, app, apps[app], 28)
		for i := 0; i < 3; i++ {
			for _, k := range n.App {
				if _, err := n.Runtime.RunKernel(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		c := View(n).Curve
		caps := probeCaps(allPowers(t, n))
		for w := 0.0; w <= 120; w += 0.125 {
			caps = append(caps, w)
		}
		sort.Float64s(caps)
		prev := 0.0
		for _, capW := range caps {
			u := c.At(capW)
			if u < prev {
				t.Fatalf("%s: utility falls from %v to %v at cap %v", app, prev, u, capW)
			}
			prev = u
		}
	}
}

// TestSweepCurveMatchesOracleOnSyntheticPredictions drives the sweep
// with predictions the simulator does not produce — powers shared
// within and across kernels, non-positive performance, a kernel with
// no positive performance at all — and compares it with the oracle's
// evaluation at every probe cap.
func TestSweepCurveMatchesOracleOnSyntheticPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	powers := []float64{11, 12.5, 14, 17.25, 20, 23.5, 30}
	for trial := 0; trial < 300; trial++ {
		var weights []float64
		var preds [][]core.Prediction
		for k := 1 + rng.Intn(6); k > 0; k-- {
			weights = append(weights, rng.Float64())
			var ps []core.Prediction
			for c := 1 + rng.Intn(10); c > 0; c-- {
				p := core.Prediction{Config: apu.Config{Threads: c}, PowerW: powers[rng.Intn(len(powers))], Perf: rng.Float64()*10 - 2}
				if rng.Intn(5) == 0 {
					p.PowerW = 5 + rng.Float64()*40
				}
				ps = append(ps, p)
			}
			preds = append(preds, ps)
		}
		sels := make([]*core.Selector, len(preds))
		for k, ps := range preds {
			sels[k] = core.NewSelector(ps, 0)
		}
		c := sweepCurve(weights, sels, 0)
		oracle := func(capW float64) float64 {
			total := 0.0
			for k, ps := range preds {
				best, maxPerf := 0.0, 0.0
				for _, p := range ps {
					if p.Perf > maxPerf {
						maxPerf = p.Perf
					}
					if p.PowerW <= capW && p.Perf > best {
						best = p.Perf
					}
				}
				if maxPerf > 0 {
					total += weights[k] * best / maxPerf
				}
			}
			return total
		}
		var bps []float64
		for _, ps := range preds {
			for _, p := range ps {
				bps = append(bps, p.PowerW)
			}
		}
		sort.Float64s(bps)
		for _, capW := range probeCaps(bps) {
			if got, want := c.At(capW), oracle(capW); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: At(%v) = %v, oracle %v", trial, capW, got, want)
			}
		}
	}
}

// TestCurveAtNaNCap: nothing is affordable under a NaN cap, as under
// the oracle's comparisons.
func TestCurveAtNaNCap(t *testing.T) {
	c := Curve{Breakpoints: []float64{10, 20}, Utility: []float64{0.5, 1}}
	if got := c.At(math.NaN()); got != 0 {
		t.Fatalf("At(NaN) = %v, want 0", got)
	}
	if got := (Curve{}).At(50); got != 0 {
		t.Fatalf("empty curve At(50) = %v, want 0", got)
	}
}

// BenchmarkSweepCurve measures one rebuild of a node's utility curve,
// the work done once per adaptation: the adapted kernels' predictions
// of a LULESH node (the largest application mix) swept into one Curve.
func BenchmarkSweepCurve(b *testing.B) {
	_, apps := sharedModel(b)
	n := newNode(b, "n0", apps["lulesh"], 28)
	for i := 0; i < 3; i++ {
		for _, k := range n.App {
			if _, err := n.Runtime.RunKernel(k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if c, _ := buildCurve(n); len(c.Breakpoints) == 0 {
			b.Fatal("empty curve")
		}
	}
}
