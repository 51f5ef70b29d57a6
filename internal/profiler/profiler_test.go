package profiler

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/kernels"
)

func testKernel() kernels.Kernel {
	b := kernels.Suite()[0]
	return kernels.Instantiate(b.Name, b.Kernels[0], "Small")
}

func TestRunRecordsSample(t *testing.T) {
	p := New()
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

func TestProfileAllConfigs(t *testing.T) {
	p := New()
	k := testKernel()
	ss, err := p.ProfileAllConfigs(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != p.Space.Len() {
		t.Fatalf("samples = %d, want %d", len(ss), p.Space.Len())
	}
	for i, s := range ss {
		if s.ConfigID != i {
			t.Fatalf("sample %d has config %d (order broken)", i, s.ConfigID)
		}
	}
	if len(p.History()) != p.Space.Len() {
		t.Errorf("history = %d", len(p.History()))
	}
}

func TestProfileAllConfigsMatchesSequential(t *testing.T) {
	// Concurrency must not perturb determinism.
	k := testKernel()
	par, err := New().ProfileAllConfigs(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := New()
	for id := 0; id < seq.Space.Len(); id++ {
		s, err := seq.Run(k, id, 3)
		if err != nil {
			t.Fatal(err)
		}
		if s.TimeSec != par[id].TimeSec || s.Counters != par[id].Counters {
			t.Fatalf("config %d: parallel and sequential profiles differ", id)
		}
	}
}

func TestHistoryFor(t *testing.T) {
	p := New()
	k1 := testKernel()
	b := kernels.Suite()[0]
	k2 := kernels.Instantiate(b.Name, b.Kernels[1], "Small")
	if _, err := p.Run(k1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(k2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(k1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(k1, 1, 0); err != nil {
		t.Fatal(err)
	}
	h := p.HistoryFor(k1.ID())
	if len(h) != 3 {
		t.Fatalf("HistoryFor = %d samples", len(h))
	}
	// Ordered by (config, iteration).
	if h[0].ConfigID != 1 || h[1].ConfigID != 3 || h[1].Iteration != 0 || h[2].Iteration != 1 {
		t.Errorf("history order: %+v", h)
	}
}

func TestReset(t *testing.T) {
	p := New()
	if _, err := p.Run(testKernel(), 0, 0); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if len(p.History()) != 0 {
		t.Error("Reset did not clear history")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := New()
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
	q := New()
	if err := q.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ha, hb := p.History(), q.History()
	if len(ha) != len(hb) {
		t.Fatalf("round trip lost samples: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].KernelID != hb[i].KernelID || ha[i].TimeSec != hb[i].TimeSec || ha[i].Counters != hb[i].Counters {
			t.Fatalf("sample %d differs after round trip", i)
		}
	}
}

func TestReadJSONBadInput(t *testing.T) {
	p := New()
	if err := p.ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestConcurrentRunsSafe(t *testing.T) {
	p := New()
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

func BenchmarkProfileAllConfigs(b *testing.B) {
	p := New()
	k := testKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reset()
		if _, err := p.ProfileAllConfigs(k, 0); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkSample Sample

// BenchmarkRun measures one profiler run: seeding its noise stream,
// the machine model, the SMU measurement and the counter readout.
// Config and iteration vary as in a characterization; the history is
// cleared every 4,096 runs so it stays bounded.
func BenchmarkRun(b *testing.B) {
	p := New()
	k := testKernel()
	n := p.Space.Len()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			p.Reset()
		}
		s, err := p.Run(k, i%n, i/n)
		if err != nil {
			b.Fatal(err)
		}
		sinkSample = s
	}
}
