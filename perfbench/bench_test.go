package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"acsel/internal/query"
)

// Self-tests of the benchmark: the same seed must give the same inputs
// and the same exact counts, and a second seed must pass every
// correctness gate. Run with `go test` from this directory.

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(perturbations(7), perturbations(7)) {
		t.Fatal("perturbation list differs for the same seed")
	}
	if reflect.DeepEqual(perturbations(7), perturbations(8)) {
		t.Fatal("perturbation list ignores the seed")
	}
	for _, p := range perturbations(7)[1:] {
		if p.GPUDyn < 0.75 || p.GPUDyn > 1.25 || p.BW < 0.75 || p.BW > 1.25 {
			t.Fatalf("perturbation %+v outside ±25%%", p)
		}
	}
	if perturbations(7)[0] != (perturbation{GPUDyn: 1, BW: 1}) {
		t.Fatal("entry 0 must be the unperturbed machine")
	}
	a, b := fleetApps(7), fleetApps(7)
	if a[0].Label() != b[0].Label() || a[1].Label() != b[1].Label() {
		t.Fatalf("fleet application pair differs for the same seed: %v vs %v", a, b)
	}
	u := universe()
	if !reflect.DeepEqual(hotMix(7, u), hotMix(7, u)) || !reflect.DeepEqual(churnMix(7, u), churnMix(7, u)) {
		t.Fatal("select mix differs for the same seed")
	}

	for _, mix := range []struct {
		name string
		of   func(int64, []string) selectMix
	}{{"select-hot", hotMix}, {"select-churn", churnMix}} {
		t.Run(mix.name, func(t *testing.T) {
			first := requestMultiset(t, mix.of, 7)
			second := requestMultiset(t, mix.of, 7)
			if len(first) == 0 || !reflect.DeepEqual(first, second) {
				t.Fatalf("request multiset differs for the same seed (%d vs %d requests)", len(first), len(second))
			}
		})
	}
}

// requestMultiset runs two measured batches (plus the warm-up) and
// returns every request issued, sorted.
func requestMultiset(t *testing.T, mixOf func(int64, []string) selectMix, seed int64) []string {
	t.Helper()
	var mu sync.Mutex
	var reqs []string
	record := func(r query.Request) {
		mu.Lock()
		reqs = append(reqs, fmt.Sprintf("%s|%x|%x", r.Kernel, math.Float64bits(r.CapW), math.Float64bits(r.Z)))
		mu.Unlock()
	}
	out, err := runSelect(runConfig{seed: seed, maxUnits: 2}, mixOf, selectClients, record)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d failures: %v", out.failed, out.failures)
	}
	sort.Strings(reqs)
	return reqs
}

func TestSameSeedSameCounts(t *testing.T) {
	t.Run("offline-eval", func(t *testing.T) {
		bin := buildAcselBench(t)
		exact := []string{"profiler.runs", "sched.decisions", "core.classify_allocs",
			"core.predict_all_allocs", "core.select_among_allocs", "core.select_under_cap_allocs"}
		counts := func() []float64 {
			out, err := runOfflineEval(runConfig{seed: 3, maxUnits: 2, tr: newTracer(), acselBench: bin})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%d failures: %v", out.failed, out.failures)
			}
			var vs []float64
			for _, m := range exact {
				vs = append(vs, out.layers[m])
			}
			return vs
		}
		first, second := counts(), counts()
		if !reflect.DeepEqual(first, second) || first[0] == 0 || first[1] == 0 {
			t.Fatalf("%v: %v then %v", exact, first, second)
		}
		for i, v := range first[2:] {
			if v != math.Trunc(v) {
				t.Errorf("%s = %v per call, not a whole count", exact[i+2], v)
			}
		}
	})
	for _, mix := range []struct {
		name string
		of   func(int64, []string) selectMix
	}{{"select-hot", hotMix}, {"select-churn", churnMix}} {
		t.Run(mix.name, func(t *testing.T) {
			// One client: with two, the LRU's order depends on how the
			// callers interleave, so only the request multiset repeats.
			counts := func() [2]float64 {
				before := readRegistry()
				out, err := runSelect(runConfig{seed: 3, maxUnits: 2}, mix.of, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("%d failures: %v", out.failed, out.failures)
				}
				after := readRegistry()
				return [2]float64{
					after.counter("acsel_query_cache_hits_total") - before.counter("acsel_query_cache_hits_total"),
					after.counter("acsel_query_cache_misses_total") - before.counter("acsel_query_cache_misses_total"),
				}
			}
			first, second := counts(), counts()
			if first != second || first[0]+first[1] == 0 {
				t.Fatalf("cache hits and misses: %v then %v", first, second)
			}
		})
	}
}

func TestSecondSeedPassesGates(t *testing.T) {
	bin := buildAcselBench(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				cfg := runConfig{seed: 2, maxUnits: 1, acselBench: bin}
				if traced {
					// Enough units for an untraced one beside the traced
					// ones; offline-eval alternates whole sweeps.
					cfg.tr, cfg.maxUnits = newTracer(), 2
					if w.name == "offline-eval" {
						cfg.maxUnits = sweepLen + 1
					}
				}
				out, err := w.run(cfg)
				if err == nil && traced {
					err = measureIdleLayers(cfg, w.name, out)
				}
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.failures)
				}
				var buf bytes.Buffer
				if err := report(&buf, w.name, traced, out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]metricValue
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil || res.Correct == nil || res.Attempted == nil || res.Failed == nil {
					t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
				}
				// Every time the line reports must be measured, not a
				// placeholder 0: a layer the workload leaves idle is
				// measured on its home workload.
				for name, m := range res.Metrics {
					if timeUnits[m.Unit] && m.Value <= 0 {
						t.Errorf("%s = %v %s", name, m.Value, m.Unit)
					}
				}
			})
		}
	}
}

// timeUnits are the units of reported durations.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

func TestTable3GateRejectsMismatch(t *testing.T) {
	bin := buildAcselBench(t)
	if err := checkTable3(bin, "not Table III"); err == nil {
		t.Fatal("a wrong Table III passed the gate")
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// binDir holds the reference binary the tests build.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	acselBenchOnce sync.Once
	acselBenchErr  error
)

// buildAcselBench builds the reference binary once per test process.
func buildAcselBench(t *testing.T) string {
	t.Helper()
	path := filepath.Join(binDir, "acsel-bench")
	acselBenchOnce.Do(func() {
		out, err := exec.Command("go", "build", "-o", path, "acsel/cmd/acsel-bench").CombinedOutput()
		if err != nil {
			acselBenchErr = fmt.Errorf("building acsel-bench: %v\n%s", err, out)
		}
	})
	if acselBenchErr != nil {
		t.Fatal(acselBenchErr)
	}
	return path
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workloads and metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, ours)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, reported []metricSpec) {
		var got []metricSpec
		for _, m := range listed {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, reported) {
			t.Errorf("%s metrics: BENCHMARK.json %v, command %v", kind, got, reported)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	var layers []metricSpec
	for _, s := range perLayer {
		layers = append(layers, metricSpec{s.name, s.unit})
	}
	check("per-layer", spec.PerLayer, layers)
}
