package fleet

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"acsel/internal/hierarchy"
)

// randomViews builds synthetic views mirroring the hierarchy package's
// property-test fixture: hand-built demand figures and step curves.
func randomViews(rng *rand.Rand, n int) []hierarchy.NodeView {
	views := make([]hierarchy.NodeView, n)
	for i := range views {
		v := hierarchy.NodeView{
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

// roundtrip pushes a view through the full wire path: sample to a
// Report, marshal to JSON, unmarshal, validate, view again.
func roundtrip(t *testing.T, v hierarchy.NodeView) hierarchy.NodeView {
	t.Helper()
	rep := ReportOf(v)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	return back.View()
}

// TestRemoteViewMatchesLocal checks the tentpole's load-bearing claim:
// a report round-tripped over the wire reconstructs the utility curve
// exactly, so the dividers produce bitwise-identical caps from remote
// reports and local views. Float64 values survive JSON unchanged and
// the curve is a step function carried by its breakpoints, so exact
// equality — not tolerance — is the contract.
func TestRemoteViewMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		budget := hierarchy.MinNodeCapW*float64(n) + rng.Float64()*100
		local := randomViews(rng, n)
		remote := make([]hierarchy.NodeView, n)
		for i, v := range local {
			remote[i] = roundtrip(t, v)
		}
		// Pointwise curve equality at breakpoints, between them, and at
		// the extremes.
		for i, v := range local {
			for _, bp := range v.Curve.Breakpoints {
				for _, at := range []float64{bp, bp - 0.25, bp + 0.25, 0, 500} {
					if got, want := remote[i].Curve.At(at), v.Curve.At(at); got != want { //lint:ignore floatcmp exact reconstruction is the contract
						t.Fatalf("trial %d %s: remote utility(%v) = %v, local %v",
							trial, v.Name, at, got, want)
					}
				}
			}
			gotD, gotOK := remote[i].DemandW, remote[i].DemandOK
			wantD, wantOK := v.DemandW, v.DemandOK
			if gotD != wantD || gotOK != wantOK { //lint:ignore floatcmp exact reconstruction is the contract
				t.Fatalf("trial %d %s: remote demand (%v,%v), local (%v,%v)",
					trial, v.Name, gotD, gotOK, wantD, wantOK)
			}
		}
		for _, p := range []hierarchy.Policy{hierarchy.Uniform, hierarchy.DemandProportional, hierarchy.WaterFill} {
			lc, err := hierarchy.Divide(p, local, budget)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := hierarchy.Divide(p, remote, budget)
			if err != nil {
				t.Fatal(err)
			}
			for i := range lc {
				if lc[i] != rc[i] { //lint:ignore floatcmp identical curves must divide identically
					t.Fatalf("trial %d %s: node %d remote cap %v, local %v", trial, p, i, rc[i], lc[i])
				}
			}
		}
	}
}

// TestRemoteDivideProperties re-checks the divider invariants through
// the remote-report path: sum equals budget within 1e-9, every cap at
// least the floor.
func TestRemoteDivideProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		budget := hierarchy.MinNodeCapW*float64(n) + rng.Float64()*100
		views := make([]hierarchy.NodeView, n)
		for i, v := range randomViews(rng, n) {
			views[i] = roundtrip(t, v)
		}
		for _, p := range []hierarchy.Policy{hierarchy.Uniform, hierarchy.DemandProportional, hierarchy.WaterFill} {
			caps, err := hierarchy.Divide(p, views, budget)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for i, c := range caps {
				if c < hierarchy.MinNodeCapW-1e-9 {
					t.Fatalf("trial %d %s: cap %d = %v below floor", trial, p, i, c)
				}
				sum += c
			}
			if math.Abs(sum-budget) > 1e-9 {
				t.Fatalf("trial %d %s: caps sum to %v, budget %v", trial, p, sum, budget)
			}
		}
	}
}

// TestReportValidateRejectsGarbage feeds Validate the malformed shapes
// a corrupt or hostile peer could send.
func TestReportValidateRejectsGarbage(t *testing.T) {
	good := Report{Version: ProtocolVersion, Name: "n", CapW: 20, DemandW: 15, DemandOK: true,
		Breakpoints: []float64{10, 20}, Utility: []float64{0.4, 0.9}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []Report{
		{Version: 99, Name: "n"},
		{Version: ProtocolVersion},
		{Version: ProtocolVersion, Name: "n", CapW: math.NaN()},
		{Version: ProtocolVersion, Name: "n", DemandW: math.Inf(1)},
		{Version: ProtocolVersion, Name: "n", Breakpoints: []float64{10}, Utility: nil},
		{Version: ProtocolVersion, Name: "n", Breakpoints: []float64{-1}, Utility: []float64{0}},
		{Version: ProtocolVersion, Name: "n", Breakpoints: []float64{20, 10}, Utility: []float64{0, 1}},
		{Version: ProtocolVersion, Name: "n", Breakpoints: []float64{10, 20}, Utility: []float64{1, 0.5}},
		{Version: ProtocolVersion, Name: "n", Breakpoints: []float64{10}, Utility: []float64{math.NaN()}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad report %d passed validation: %+v", i, r)
		}
	}
}
