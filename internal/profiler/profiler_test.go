package profiler

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/kernels"
)

func testKernel() kernels.Kernel {
	b := kernels.Suite()[0]
	return kernels.Instantiate(b.Name, b.Kernels[0], "Small")
}

// sweep runs k once at every configuration concurrently, one goroutine
// per configuration as core.Characterize fans out, and returns the
// samples ordered by configuration ID.
func sweep(p *Profiler, k kernels.Kernel, iteration int) ([]Sample, error) {
	out := make([]Sample, p.Space.Len())
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for id := range out {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out[id], errs[id] = p.Run(k, id, iteration)
		}(id)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func TestRunRecordsSample(t *testing.T) {
	p := New()
	p.KeepHistory = true
	k := testKernel()
	s, err := p.Run(k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.KernelID != k.ID() || s.ConfigID != 0 || s.Iteration != 1 {
		t.Errorf("sample identity = %+v", s)
	}
	if s.TimeSec <= 0 || s.TotalPowerW() <= 0 {
		t.Errorf("sample measurements = %+v", s)
	}
	if s.Perf() != 1/s.TimeSec {
		t.Error("Perf mismatch")
	}
	if len(p.History()) != 1 {
		t.Errorf("history length = %d", len(p.History()))
	}
}

// TestHistoryOffByDefault: a profiler keeps no samples unless asked,
// so a long-running caller's memory does not grow with its runs.
func TestHistoryOffByDefault(t *testing.T) {
	p := New()
	if _, err := sweep(p, testKernel(), 0); err != nil {
		t.Fatal(err)
	}
	if h := p.History(); len(h) != 0 {
		t.Fatalf("history holds %d samples with KeepHistory off", len(h))
	}
}

func TestRunReproducible(t *testing.T) {
	k := testKernel()
	a, err := New().Run(k, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Run(k, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec || a.CPUPowerW != b.CPUPowerW || a.Counters != b.Counters {
		t.Error("Run not reproducible across profiler instances")
	}
}

func TestRunUnknownConfig(t *testing.T) {
	p := New()
	if _, err := p.Run(testKernel(), 999, 0); err == nil {
		t.Fatal("expected ErrUnknownConfig")
	}
	if _, err := p.Run(testKernel(), -1, 0); err == nil {
		t.Fatal("expected ErrUnknownConfig")
	}
}

func TestRunConfig(t *testing.T) {
	p := New()
	s, err := p.RunConfig(testKernel(), apu.SampleConfigCPU(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config != apu.SampleConfigCPU() {
		t.Errorf("config = %v", s.Config)
	}
	bad := apu.Config{Device: apu.CPUDevice, CPUFreqGHz: 2.4, Threads: 4, GPUFreqGHz: 0.819}
	if _, err := p.RunConfig(testKernel(), bad, 0); err == nil {
		t.Fatal("config outside the space must be rejected")
	}
}

// TestJSONRoundTrip decodes WriteJSON's output with encoding/json and
// compares it with History: the runs below are recorded in the order
// WriteJSON sorts by, so the two must match sample for sample.
func TestJSONRoundTrip(t *testing.T) {
	p := New()
	p.KeepHistory = true
	if _, err := p.Run(testKernel(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(testKernel(), 7, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Sample
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if want := p.History(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded history differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWriteJSONDeterministic checks that two identical parallel sweeps
// write byte-identical histories, although their runs finish in no
// fixed order.
func TestWriteJSONDeterministic(t *testing.T) {
	ks := []kernels.Kernel{testKernel()}
	b := kernels.Suite()[1]
	ks = append(ks, kernels.Instantiate(b.Name, b.Kernels[0], "Small"))
	sweep := func() []byte {
		p := New()
		p.KeepHistory = true
		for iter := 0; iter < 2; iter++ {
			for _, k := range ks {
				if _, err := sweep(p, k, iter); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := sweep(), sweep()
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical sweeps wrote different JSON (%d and %d bytes)", len(first), len(second))
	}
}

func TestConcurrentRunsSafe(t *testing.T) {
	p := New()
	p.KeepHistory = true
	k := testKernel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := p.Run(k, j, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(p.History()) != 80 {
		t.Errorf("history = %d, want 80", len(p.History()))
	}
}

var sinkSample Sample

// BenchmarkRun measures one profiler run: seeding its noise stream,
// the machine model, the SMU measurement and the counter readout.
// Config and iteration vary as in a characterization; the history is
// off, as in every caller but acsel-train -profiles.
func BenchmarkRun(b *testing.B) {
	p := New()
	k := testKernel()
	n := p.Space.Len()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := p.Run(k, i%n, i/n)
		if err != nil {
			b.Fatal(err)
		}
		sinkSample = s
	}
}
