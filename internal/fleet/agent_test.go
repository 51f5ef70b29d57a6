package fleet

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"acsel/internal/hierarchy"
	"acsel/internal/kernels"
	"acsel/internal/rts"
)

// newAgent builds an agent over a fresh runtime for app, with the
// heartbeat loop off.
func newAgent(t testing.TB, name string, app []kernels.Kernel, capW float64) (*Agent, *rts.Runtime) {
	t.Helper()
	model, _ := sharedModel(t)
	rt, err := rts.New(model, rts.Options{CapW: capW, FL: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(name, rt, app, AgentOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	return a, rt
}

// runApp runs every kernel of app once.
func runApp(t testing.TB, rt *rts.Runtime, app []kernels.Kernel, ks int) {
	t.Helper()
	for _, k := range app[:ks] {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocalDivideMatchesServedReports divides budgets over the agents'
// in-process views and over their served reports, JSON round-tripped
// and validated as the coordinator receives them, at every adaptation
// stage: the caps must agree bit for bit.
func TestLocalDivideMatchesServedReports(t *testing.T) {
	_, apps := sharedModel(t)
	var agents []*Agent
	var runtimes []*rts.Runtime
	for i, app := range apps {
		a, rt := newAgent(t, string(rune('a'+i))+"-node", app, 28)
		agents, runtimes = append(agents, a), append(runtimes, rt)
	}
	stage := func(name string) {
		local := make([]hierarchy.NodeView, len(agents))
		remote := make([]hierarchy.NodeView, len(agents))
		for i, a := range agents {
			local[i] = hierarchy.View(a.node)
			data, err := json.Marshal(a.Report())
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("%s: served report invalid: %v", name, err)
			}
			if _, adapted := a.node.UtilityCurve(); back.AdaptedKernels != len(runtimes[i].AdaptedKernels()) || adapted != back.AdaptedKernels {
				t.Fatalf("%s: report counts %d adapted kernels, runtime %d", name, back.AdaptedKernels, len(runtimes[i].AdaptedKernels()))
			}
			remote[i] = back.View()
		}
		for _, budget := range []float64{20, 37.5, 56, 90} {
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
					if math.Float64bits(lc[i]) != math.Float64bits(rc[i]) {
						t.Fatalf("%s, %s, budget %v: node %d local cap %v, report %v", name, p, budget, i, lc[i], rc[i])
					}
				}
			}
		}
	}
	for i, app := range apps {
		runApp(t, runtimes[i], app, len(app))
	}
	stage("none adapted")
	for i, app := range apps {
		runApp(t, runtimes[i], app, len(app)/2)
	}
	stage("some adapted")
	for i, app := range apps {
		runApp(t, runtimes[i], app, len(app))
		runApp(t, runtimes[i], app, len(app))
	}
	stage("all adapted")
}

// TestAgentReportDuringRunKernel serves reports while the node's
// runtime executes — acsel-serve answers /fleet/report while its epoch
// loop runs. Under -race it fails on runtime or curve-cache state
// shared without a lock.
func TestAgentReportDuringRunKernel(t *testing.T) {
	_, apps := sharedModel(t)
	app := apps[1]
	a, rt := newAgent(t, "a-node", app, 28)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			for _, k := range app {
				if _, err := rt.RunKernel(k); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := a.Report().Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r := a.Report(); r.AdaptedKernels != len(app) || r.Steps != 3*len(app) {
		t.Fatalf("final report: %d adapted, %d steps", r.AdaptedKernels, r.Steps)
	}
}

// BenchmarkAgentReport measures what an agent does per report pull
// once its kernels have adapted: build the Report from the cached
// curve and the runtime's counters, and encode it as JSON.
func BenchmarkAgentReport(b *testing.B) {
	_, apps := sharedModel(b)
	app := apps[1]
	a, rt := newAgent(b, "a-node", app, 28)
	for i := 0; i < 3; i++ {
		runApp(b, rt, app, len(app))
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := json.Marshal(a.Report()); err != nil {
			b.Fatal(err)
		}
	}
}
