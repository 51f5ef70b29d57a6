package profiler

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"acsel/internal/counters"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/power"
)

// freshSample is a clean run's sample computed from a fresh
// kernels.IterationRNG generator rather than a pooled, reseeded one:
// the reference every pooled run must reproduce bit for bit.
func freshSample(t *testing.T, p *Profiler, k kernels.Kernel, cfgID, iteration int) Sample {
	t.Helper()
	cfg := p.Space.Configs[cfgID]
	rng := kernels.IterationRNG(k.ID(), cfgID, iteration)
	exec, err := p.Machine.RunNoisy(k.Workload, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := p.SMU.Measure(power.ConstantTrace(exec.CPUPowerW, exec.NBGPUPowerW), exec.TimeSec, rng)
	if err != nil {
		t.Fatal(err)
	}
	return Sample{
		KernelID:  k.ID(),
		Benchmark: k.Benchmark,
		Input:     k.Input,
		Kernel:    k.Name,
		ConfigID:  cfgID,
		Config:    cfg,
		Iteration: iteration,
		TimeSec:   exec.TimeSec,
		CPUPowerW: meas.AvgCPUW,
		NBGPUW:    meas.AvgNBGPUW,
		Counters:  counters.Derive(k.Workload, exec).Noisy(rng, p.CounterNoiseRel),
	}
}

func injector(name string, rules ...fault.Rule) *fault.Injector {
	return fault.NewInjector(fault.Scenario{Name: name, Rules: rules}, 1)
}

// TestPooledRunAfterFaultedRunsMatchesFresh: a sensor dropout abandons
// its generator after the SMU draws, and a corrupted-counter run draws
// more than a clean run. Either way the generator goes back to the pool
// mid-stream; the next run on the same profiler must still return
// exactly the sample a fresh generator gives.
func TestPooledRunAfterFaultedRunsMatchesFresh(t *testing.T) {
	dropout := injector("all-dropout", fault.Rule{Site: fault.SiteSMU, Kind: fault.SensorDropout, Prob: 1})
	garbage := injector("all-garbage",
		fault.Rule{Site: fault.SiteKernel, Kind: fault.KernelHang, Prob: 1, Magnitude: 3},
		fault.Rule{Site: fault.SiteCounter, Kind: fault.CounterCorrupt, Prob: 1, Magnitude: 50})
	k := testKernel()
	other := kernels.Instantiate(kernels.Suite()[1].Name, kernels.Suite()[1].Kernels[0], "Small")
	p := New()
	for id := 0; id < p.Space.Len(); id++ {
		p.Faults = dropout
		if _, err := p.Run(other, id, 1); !errors.Is(err, power.ErrSensorDropout) {
			t.Fatalf("config %d: dropout run err = %v, want power.ErrSensorDropout", id, err)
		}
		want := freshSample(t, p, k, id, 1)
		p.Faults = nil
		if got, err := p.Run(k, id, 1); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d after a dropout: got %+v, %v; fresh generator gives %+v", id, got, err, want)
		}

		p.Faults = garbage
		faulted, err := p.Run(other, id, 2)
		if err != nil {
			t.Fatal(err)
		}
		if clean := freshSample(t, p, other, id, 2); reflect.DeepEqual(faulted, clean) {
			t.Fatalf("config %d: the faulted run drew no faults", id)
		}
		p.Faults = nil
		if got, err := p.Run(k, id, 1); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d after a faulted run: got %+v, %v; fresh generator gives %+v", id, got, err, want)
		}
	}
}

// TestConcurrentSweepsMatchFresh: concurrent sweeps share the generator
// pool; every sample must still equal the fresh generator's. make
// test-race runs it under the race detector.
func TestConcurrentSweepsMatchFresh(t *testing.T) {
	ks := []kernels.Kernel{
		testKernel(),
		kernels.Instantiate(kernels.Suite()[1].Name, kernels.Suite()[1].Kernels[0], "Small"),
	}
	p := New()
	want := make([][]Sample, 2*len(ks))
	for w := range want {
		for id := 0; id < p.Space.Len(); id++ {
			want[w] = append(want[w], freshSample(t, p, ks[w%len(ks)], id, 1+w/len(ks)))
		}
	}
	const sweepsPerInput = 3
	got := make([][]Sample, sweepsPerInput*len(want))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := g % len(want)
			got[g], errs[g] = sweep(p, ks[w%len(ks)], 1+w/len(ks))
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if w := g % len(want); !reflect.DeepEqual(got[g], want[w]) {
			t.Fatalf("sweep %d (kernel %s, iteration %d) differs from fresh generators", g, ks[w%len(ks)].ID(), 1+w/len(ks))
		}
	}
}
