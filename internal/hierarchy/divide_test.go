package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/rts"
)

// randomViews builds synthetic views for divider property tests:
// hand-built demand figures and step utility curves, no runtime behind
// them.
func randomViews(rng *rand.Rand, n int) []NodeView {
	views := make([]NodeView, n)
	for i := range views {
		v := NodeView{
			Name:     string(rune('a'+i)) + "-node",
			DemandW:  rng.Float64() * 40,
			DemandOK: rng.Intn(4) != 0,
		}
		u := 0.0
		for bp := 5 + rng.Float64()*10; bp < 80 && rng.Intn(8) != 0; bp += 1 + rng.Float64()*12 {
			u += rng.Float64() * 0.3
			v.Curve.Breakpoints = append(v.Curve.Breakpoints, bp)
			v.Curve.Utility = append(v.Curve.Utility, u)
		}
		views[i] = v
	}
	return views
}

// TestDivideProperties drives every divider over randomized synthetic
// fleets and checks the two invariants the coordinator depends on:
// caps sum to the budget within 1e-9, and every cap is at least
// MinNodeCapW.
func TestDivideProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		budget := MinNodeCapW*float64(n) + rng.Float64()*100
		views := randomViews(rng, n)
		for _, p := range []Policy{Uniform, DemandProportional, WaterFill} {
			caps, err := Divide(p, views, budget)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p, err)
			}
			if len(caps) != n {
				t.Fatalf("trial %d %s: %d caps for %d nodes", trial, p, len(caps), n)
			}
			sum := 0.0
			for i, c := range caps {
				if c < MinNodeCapW-1e-9 {
					t.Fatalf("trial %d %s: cap %d = %v below floor %v", trial, p, i, c, MinNodeCapW)
				}
				sum += c
			}
			if math.Abs(sum-budget) > 1e-9 {
				t.Fatalf("trial %d %s: caps sum to %v, budget %v (diff %g)", trial, p, sum, budget, sum-budget)
			}
		}
	}
}

// TestWaterFillOrderInvariant permutes the same fleet and checks the
// water-fill division only depends on node identity, never on arrival
// order — the coordinator sorts members by name, but the divider must
// not require it.
func TestWaterFillOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		budget := MinNodeCapW*float64(n) + rng.Float64()*80
		views := randomViews(rng, n)
		base, err := Divide(WaterFill, views, budget)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]float64{}
		for i, v := range views {
			byName[v.Name] = base[i]
		}
		perm := rng.Perm(n)
		shuffled := make([]NodeView, n)
		for i, j := range perm {
			shuffled[i] = views[j]
		}
		caps, err := Divide(WaterFill, shuffled, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range shuffled {
			if caps[i] != byName[v.Name] { //lint:ignore floatcmp identical inputs must produce bitwise-identical caps
				t.Fatalf("trial %d: node %s got %v shuffled vs %v in order (perm %v)",
					trial, v.Name, caps[i], byName[v.Name], perm)
			}
		}
	}
}

// TestDemandSharesZeroTotal is the regression test for the divide-by-
// zero bug: a fleet whose nodes all report 0 W demand used to produce
// NaN caps (0/0) that SetCap rejects. It must fall back to uniform.
func TestDemandSharesZeroTotal(t *testing.T) {
	views := []NodeView{
		{Name: "a", DemandW: 0, DemandOK: true},
		{Name: "b", DemandW: 0, DemandOK: true},
		{Name: "c", DemandW: 0, DemandOK: true},
	}
	budget := 48.0
	caps, err := Divide(DemandProportional, views, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		if math.IsNaN(c) {
			t.Fatalf("cap %d is NaN — the zero-demand guard regressed", i)
		}
		if math.Abs(c-budget/3) > 1e-9 {
			t.Fatalf("cap %d = %v, want uniform %v", i, c, budget/3)
		}
	}
}

// TestClusterStepJoinsErrors builds both nodes over a model without a
// classifier, so every node fails when its kernels adapt on the second
// Step, and checks Step reports every node's failure, not just the
// first: concurrent multi-node failures used to collapse to one
// arbitrary error.
func TestClusterStepJoinsErrors(t *testing.T) {
	m, apps := sharedModel(t)
	noTree := *m
	noTree.Tree = nil
	var nodes []*Node
	for i, app := range [][]kernels.Kernel{apps["comd"], apps["lulesh"]} {
		rt, err := rts.New(&noTree, rts.Options{CapW: 24})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &Node{Name: fmt.Sprintf("n%d", i), Runtime: rt, App: app})
	}
	c, err := NewCluster(nodes, 48, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); err != nil {
		t.Fatalf("sample step failed: %v", err)
	}
	_, err = c.Step()
	if err == nil {
		t.Fatal("Step succeeded without a classifier")
	}
	if !errors.Is(err, core.ErrNoModel) {
		t.Fatalf("joined error does not preserve the cause: %v", err)
	}
	for _, name := range []string{"n0", "n1"} {
		if !strings.Contains(err.Error(), "node "+name+":") {
			t.Fatalf("joined error dropped %s's failure:\n%v", name, err)
		}
	}
}

// BenchmarkDivideWaterFill measures one water-fill division of a 56 W
// budget between two adapted nodes (CoMD and LULESH), over their
// cached curves.
func BenchmarkDivideWaterFill(b *testing.B) {
	_, apps := sharedModel(b)
	nodes := []*Node{newNode(b, "n0", apps["comd"], 28), newNode(b, "n1", apps["lulesh"], 28)}
	for _, n := range nodes {
		for i := 0; i < 3; i++ {
			for _, k := range n.App {
				if _, err := n.Runtime.RunKernel(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	views := []NodeView{View(nodes[0]), View(nodes[1])}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Divide(WaterFill, views, 56); err != nil {
			b.Fatal(err)
		}
	}
}
