// Command perfbench is the repository benchmark. One run drives one
// named workload for a fixed time from a seed, checks every output it
// produces against an oracle, and prints its metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run reports the end-to-end metrics a user of the
// system sees. With --trace 1 it alternates traced and untraced units of
// work, records spans around the benchmark's own calls into each layer
// (kept in memory, written to .bench_build/traces/ at exit), and reports
// the per-layer metrics plus the tracing overhead; layers the workload
// leaves idle are measured on one unit of their home workload. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Any failed operation or oracle mismatch makes the run exit non-zero.
// perfbench/run.sh builds this command from the checkout and runs it;
// README.md beside it describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"acsel/internal/metrics"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0. The unit of work behind cpu_ms_per_op and p50_ms is per
// workload: one full evaluation (offline-eval), one selection request
// (select-hot, select-churn), one fleet epoch's steps plus its
// rebalance round (cpu_ms_per_op) and one round (p50_ms) on
// fleet-rounds. Throughput and tail latency are printed per workload
// too, but not gated: on a shared two-CPU host they swing with the
// CPU time other tenants take (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
}

// layerSpec names one per-layer metric, its unit and its home: the
// workload that exercises the layer ("" for the decision probe, which
// every workload runs).
type layerSpec struct {
	name, unit, home string
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1.
var perLayer = []layerSpec{
	{"core.characterize_s", "s", "offline-eval"},
	{"profiler.runs", "count", "offline-eval"},
	{"core.dissimilarity_s", "s", "offline-eval"},
	{"core.train_s", "s", "offline-eval"},
	{"eval.folds_s", "s", "offline-eval"},
	{"sched.decisions", "count", "offline-eval"},
	{"core.classify_us", "us", ""},
	{"core.classify_allocs", "count", ""},
	{"core.predict_all_us", "us", ""},
	{"core.predict_all_allocs", "count", ""},
	{"core.select_among_ns", "ns", ""},
	{"core.select_among_allocs", "count", ""},
	{"core.select_under_cap_us", "us", ""},
	{"core.select_under_cap_allocs", "count", ""},
	{"query.cache_hit_ratio", "ratio", "select-hot"},
	{"query.coalesced_ratio", "ratio", "select-hot"},
	{"query.queue_wait_us", "us", "select-churn"},
	{"query.compute_us", "us", "select-churn"},
	{"query.reload_us", "us", "select-churn"},
	{"query.shed", "count", "select-churn"},
	{"rts.step_sample_us", "us", "fleet-rounds"},
	{"rts.step_pinned_us", "us", "fleet-rounds"},
	{"rts.steps_snapshot_us", "us", "fleet-rounds"},
	{"fleet.report_build_us", "us", "fleet-rounds"},
	{"fleet.report_rpc_us", "us", "fleet-rounds"},
	{"fleet.push_rpc_us", "us", "fleet-rounds"},
	{"fleet.report_bytes", "B", "fleet-rounds"},
	{"hierarchy.divide_us", "us", "fleet-rounds"},
	{"trace.overhead_ratio", "ratio", ""},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	// tr is nil for untraced runs.
	tr *tracer
	// acselBench is the acsel-bench binary whose Table III output the
	// offline-eval workload must reproduce byte for byte.
	acselBench string
	// maxUnits, when positive, bounds the run by units of work
	// (evaluations, request batches, fleet sessions) instead of time;
	// the self-tests use it to make runs exactly repeatable.
	maxUnits int
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int64
	// failures holds the first few failure descriptions.
	failures []string
	// e2e and layers are keyed by the names in endToEnd and perLayer.
	e2e    map[string]float64
	layers map[string]float64
	// named are the workload's own end-to-end figures, printed for
	// people (the JSON line carries the endToEnd set).
	named []namedValue
	// notes are extra lines for people, printed as comments.
	notes []string
	// heapPeak is the largest live-heap reading, in bytes.
	heapPeak uint64
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

// maxFailureSamples bounds the failure descriptions kept per run.
const maxFailureSamples = 5

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxFailureSamples {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// failMany counts n failed operations under one description.
func (o *outcome) failMany(n int64, desc string) {
	o.failed += n
	if len(o.failures) < maxFailureSamples {
		o.failures = append(o.failures, desc)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) name(name string, value float64, unit string) {
	o.named = append(o.named, namedValue{name, value, unit})
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"offline-eval", runOfflineEval},
	{"select-hot", runSelectHot},
	{"select-churn", runSelectChurn},
	{"fleet-rounds", runFleetRounds},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	root := fs.String("root", ".", "repository root (trace files go under .bench_build/)")
	acselBench := fs.String("acsel-bench", "", "acsel-bench binary for the Table III reference")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, acselBench: *acselBench}
	if *traceFlag == 1 {
		cfg.tr = newTracer()
	}
	out, err := w.run(cfg)
	if err == nil && cfg.tr != nil {
		err = measureIdleLayers(cfg, w.name, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.tr != nil {
		path := filepath.Join(*root, ".bench_build", "traces",
			fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", w.name, f)
	}
	if err := report(stdout, w.name, cfg.tr != nil, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// measureIdleLayers fills the per-layer metrics a traced run left at 0
// because its workload does not exercise their layer: each such layer is
// measured by one unit of work of its home workload, run after the main
// loop with a tracer of its own. Every traced run thus reports a measured
// figure for every layer; the home run's operations count as attempted
// and its gates as failures.
func measureIdleLayers(cfg runConfig, name string, out *outcome) error {
	for _, w := range workloads {
		if w.name == name {
			continue
		}
		var idle []string
		for _, s := range perLayer {
			if s.home == w.name && out.layers[s.name] == 0 {
				idle = append(idle, s.name)
			}
		}
		if len(idle) == 0 {
			continue
		}
		home, err := w.run(runConfig{seed: cfg.seed, seconds: cfg.seconds, tr: newTracer(),
			acselBench: cfg.acselBench, maxUnits: 1})
		if err != nil {
			return fmt.Errorf("measuring idle layers on %s: %w", w.name, err)
		}
		out.attempted += home.attempted
		out.failed += home.failed
		out.failures = append(out.failures, home.failures...)
		for _, m := range idle {
			out.layers[m] = home.layers[m]
		}
		out.note("measured on one unit of %s: %s", w.name, strings.Join(idle, ", "))
	}
	return nil
}

// resultLine is the final JSON object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable metric lines, then the JSON line.
func report(w io.Writer, name string, traced bool, out *outcome) error {
	bw := bufio.NewWriter(w)
	specs, values := endToEnd, out.e2e
	if traced {
		specs = nil
		for _, s := range perLayer {
			specs = append(specs, metricSpec{s.name, s.unit})
		}
		values = out.layers
	}
	res := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(bw, "# %s: %d attempted, %d failed (fail_ratio %s)\n",
		name, out.attempted, out.failed, fmtFloat(ratio(out.failed, out.attempted)))
	for _, n := range out.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	if !traced {
		for _, n := range out.named {
			fmt.Fprintf(bw, "%-28s %14s %s\n", n.name, fmtFloat(n.value), n.unit)
		}
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", name, s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(bw, "%-28s %14s %s\n", s.name, fmtFloat(v), s.unit)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first write error and returns it from
	// Flush, which is checked.
	_, _ = bw.Write(data)
	_ = bw.WriteByte('\n')
	return bw.Flush()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 9

// timeSetup runs setup setupRepeats times, keeps the last result and
// records the median time as setup_s.
func timeSetup[T any](out *outcome, setup func() (T, error)) (T, error) {
	var v T
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
		out.sampleHeap()
	}
	out.e2e["setup_s"] = median(ds)
	return v, nil
}

// sampleHeap collects garbage and folds the heap still live into the
// run's peak. Workloads call it, outside their timed regions, after
// set-up and at every unit boundary; the peak is mem_peak_mb. Reading
// the heap right after a collection makes it the memory the system
// actually retains (models, caches, histories), which repeats closely
// run to run, unlike resident size or a reading at an arbitrary point
// of the collector's cycle.
func (o *outcome) sampleHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > o.heapPeak {
		o.heapPeak = ms.HeapAlloc
	}
}

// finishE2E fills the end-to-end metrics shared by every workload:
// cpuPerOp holds per-interval process CPU seconds per unit of work and
// p50s per-interval median latencies in seconds; each metric is the
// median over intervals, so a transient stall moves one interval, not
// the run.
func finishE2E(out *outcome, cpuPerOp, p50s []float64) {
	out.e2e["mem_peak_mb"] = float64(out.heapPeak) / (1 << 20)
	out.e2e["ok_ratio"] = 1 - ratio(out.failed, out.attempted)
	out.e2e["cpu_ms_per_op"] = median(cpuPerOp) * 1e3
	out.e2e["p50_ms"] = median(p50s) * 1e3
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads. Unlike wall time it does not grow while the machine runs
// other tenants' work, so per-unit CPU cost repeats closely on a
// shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// registry reads the program's own acsel_* metric families.
type registry struct{ snap metrics.Snapshot }

func readRegistry() registry { return registry{metrics.Default.TakeSnapshot()} }

// counter sums a counter family's children.
func (r registry) counter(family string) float64 {
	f, ok := r.snap.Family(family)
	if !ok {
		return 0
	}
	var sum float64
	for _, m := range f.Metrics {
		if m.Value != nil {
			sum += *m.Value
		}
	}
	return sum
}

// histogram returns the sum and count of one histogram child, selected
// by a label value ("" for an unlabeled family).
func (r registry) histogram(family, label string) (sum float64, count uint64) {
	f, ok := r.snap.Family(family)
	if !ok {
		return 0, 0
	}
	for _, m := range f.Metrics {
		match := label == ""
		for _, v := range m.Labels {
			if v == label {
				match = true
			}
		}
		if match && m.Sum != nil && m.Count != nil {
			sum += *m.Sum
			count += *m.Count
		}
	}
	return sum, count
}

// histDelta is the (sum, count) change of one histogram child between
// two registry reads.
func histDelta(before, after registry, family, label string) (float64, uint64) {
	s0, c0 := before.histogram(family, label)
	s1, c1 := after.histogram(family, label)
	return s1 - s0, c1 - c0
}

// zeroLayers sets every per-layer metric to 0, so a workload fills in
// only the layers it exercises; measureIdleLayers fills the rest.
func zeroLayers(out *outcome) {
	for _, s := range perLayer {
		out.layers[s.name] = 0
	}
}
