package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-1)          // monotone: ignored
	c.Add(math.NaN())  // non-finite: ignored
	c.Add(math.Inf(1)) // non-finite: ignored
	c.Add(0)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
}

// TestCounterFunc: a derived counter exports fn() wherever the registry
// is read, and a name it holds cannot be registered again with any
// meaning.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("part_a_total", "")
	b := r.NewCounter("part_b_total", "")
	d := r.NewCounterFunc("derived_total", "a plus b", func() float64 { return a.Value() + b.Value() })
	a.Inc()
	b.Add(2)
	d.Inc() // reads only: no effect
	if got := d.Value(); got != 3 {
		t.Errorf("Value = %v, want 3", got)
	}
	fam, ok := r.TakeSnapshot().Family("derived_total")
	if !ok || fam.Type != "counter" || len(fam.Metrics) != 1 || *fam.Metrics[0].Value != 3 {
		t.Errorf("snapshot family = %+v, want one counter at 3", fam)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE derived_total counter\nderived_total 3\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, buf.String())
	}
	for name, reg := range map[string]func(){
		"derived twice":      func() { r.NewCounterFunc("derived_total", "a plus b", a.Value) },
		"plain over derived": func() { r.NewCounter("derived_total", "a plus b") },
		"derived over plain": func() { r.NewCounterFunc("part_a_total", "", b.Value) },
		"invalid name":       func() { r.NewCounterFunc("Bad-Name", "", a.Value) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			reg()
		}()
	}
}

func TestGaugeSemantics(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	g.Set(math.NaN())  // ignored
	g.Add(math.Inf(1)) // ignored
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
	g.Set(-2)
	if got := g.Value(); got != -2 {
		t.Errorf("gauge = %v, want -2", got)
	}
}

// TestHistogramBucketBoundaries pins the le (inclusive upper bound)
// semantics: a value exactly on a bound lands in that bucket, a value
// above every bound lands only in the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("bound_seconds", "boundary test", []float64{1, 2, 5})
	vals := []float64{0.5, 1, 1.0000001, 2, 5, 6}
	wantSum := 0.0
	for _, v := range vals {
		h.Observe(v)
		wantSum += v
	}
	h.Observe(math.NaN())  // dropped
	h.Observe(math.Inf(1)) // dropped
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6 (non-finite observations must be dropped)", got)
	}
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	snap, ok := r.TakeSnapshot().Family("bound_seconds")
	if !ok {
		t.Fatal("family missing from snapshot")
	}
	buckets := snap.Metrics[0].Buckets
	want := []struct {
		le    string
		count uint64
	}{
		{"1", 2},    // 0.5, 1
		{"2", 4},    // + 1.0000001, 2
		{"5", 5},    // + 5
		{"+Inf", 6}, // + 6
	}
	if len(buckets) != len(want) {
		t.Fatalf("buckets = %+v", buckets)
	}
	for i, w := range want {
		if buckets[i].LE != w.le || buckets[i].Count != w.count {
			t.Errorf("bucket %d = {%s %d}, want {%s %d}", i, buckets[i].LE, buckets[i].Count, w.le, w.count)
		}
	}
}

func TestNormalizeBuckets(t *testing.T) {
	r := NewRegistry()
	// Unsorted with a duplicate and a trailing +Inf: normalized layout
	// must be sorted, deduped, and finite.
	h := r.NewHistogram("norm_seconds", "", []float64{5, 1, 5, math.Inf(1), 2})
	if got := h.Buckets(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Errorf("buckets = %v", got)
	}
	for name, buckets := range map[string][]float64{
		"empty_seconds": {},
		"nan_seconds":   {1, math.NaN()},
		"inf_seconds":   {math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad bucket layout accepted", name)
				}
			}()
			r.NewHistogram(name, "", buckets)
		}()
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"acsel_rts_steps_total": true,
		"a":                     true,
		"a1_b2":                 true,
		"":                      false,
		"Upper_case":            false,
		"double__underscore":    false,
		"_leading":              false,
		"trailing_":             false,
		"1starts_with_digit":    false,
		"has-dash":              false,
		"unicode_é":             false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRegistrationIdempotentAndConflicting(t *testing.T) {
	r := NewRegistry()
	c1 := r.NewCounter("reg_total", "help")
	c1.Add(7)
	// Identical re-registration returns the same underlying metric.
	c2 := r.NewCounter("reg_total", "help")
	if c1 != c2 {
		t.Error("identical re-registration produced a distinct counter")
	}
	if c2.Value() != 7 {
		t.Errorf("re-registered counter lost state: %v", c2.Value())
	}
	for name, reg := range map[string]func(){
		"kind":    func() { r.NewGauge("reg_total", "help") },
		"help":    func() { r.NewCounter("reg_total", "different help") },
		"labels":  func() { r.NewCounterVec("reg_total", "help", "site") },
		"badname": func() { r.NewCounter("Bad-Name", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("conflicting re-registration (%s) did not panic", name)
				}
			}()
			reg()
		}()
	}
}

func TestPlainFamiliesExportAtZero(t *testing.T) {
	// A registered-but-never-recorded plain metric must still appear in
	// exports: silence at zero is signal, absence is an inventory hole.
	r := NewRegistry()
	r.NewCounter("quiet_total", "never touched")
	r.NewHistogram("quiet_seconds", "never touched", []float64{1})
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"quiet_total 0\n", "quiet_seconds_count 0\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

// TestPromTextConformance pins the full text exposition of a small
// registry: HELP/TYPE lines, label escaping, cumulative buckets,
// _sum/_count, and deterministic family and child ordering.
func TestPromTextConformance(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("conf_requests_total", "Requests.\nBy site.", "site")
	cv.With(`a\b"c`).Add(3)
	cv.With("plain").Add(1)
	g := r.NewGauge("conf_level_ratio", "A gauge.")
	g.Set(0.5)
	h := r.NewHistogram("conf_wait_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP conf_level_ratio A gauge.
# TYPE conf_level_ratio gauge
conf_level_ratio 0.5
# HELP conf_requests_total Requests.\nBy site.
# TYPE conf_requests_total counter
conf_requests_total{site="a\\b\"c"} 3
conf_requests_total{site="plain"} 1
# HELP conf_wait_seconds A histogram.
# TYPE conf_wait_seconds histogram
conf_wait_seconds_bucket{le="0.1"} 1
conf_wait_seconds_bucket{le="1"} 2
conf_wait_seconds_bucket{le="+Inf"} 3
conf_wait_seconds_sum 2.55
conf_wait_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestJSONSnapshotGolden locks the exact JSON snapshot format against
// testdata/snapshot.golden.json (run with -update to rewrite it).
func TestJSONSnapshotGolden(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("golden_events_total", "Labeled counter.", "kind").With("alpha").Add(4)
	r.NewGauge("golden_depth_ratio", "Plain gauge.").Set(0.25)
	h := r.NewHistogram("golden_wait_seconds", "Plain histogram.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestConcurrentRecordAndExport hammers every metric type from many
// goroutines while exports run concurrently; final totals must be
// exact, and every histogram export taken mid-run must be internally
// consistent: cumulative buckets never decrease and +Inf equals the
// count. Run under -race this is also the data-race proof for the
// lock-free record paths.
func TestConcurrentRecordAndExport(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "")
	cv := r.NewCounterVec("conc_site_total", "", "site")
	g := r.NewGauge("conc_ratio", "")
	h := r.NewHistogramVec("conc_wait_seconds", "", []float64{0.5, 1, 2}, "phase")

	h.With("run") // exported from the first pass on
	// The writers record until the exporter has finished, at least
	// 1000 times each, and count what they recorded.
	const workers = 8
	const exports = 1000
	exported := make(chan struct{})
	recorded := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := []string{"a", "b", "c"}[w%3]
			for i := 0; ; i++ {
				if i >= 1000 {
					select {
					case <-exported:
						recorded[w] = i
						return
					default:
					}
				}
				c.Inc()
				cv.With(site).Add(2)
				g.Add(1)
				// Every observation is finite-bucketed, so an export
				// whose +Inf lags its finite buckets shows as a decrease.
				h.With("run").Observe(float64(i%4) * 0.6)
			}
		}(w)
	}
	// A concurrent reader: every export must be consistent
	// intermediate state, and must not disturb the writers.
	for i := 0; i < exports; i++ {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		if err := promHistogramConsistent(buf.String(), "conc_wait_seconds"); err != nil {
			t.Errorf("WriteProm export %d: %v", i, err)
			break
		}
		if err := snapshotHistogramConsistent(r.TakeSnapshot(), "conc_wait_seconds"); err != nil {
			t.Errorf("TakeSnapshot %d: %v", i, err)
			break
		}
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(exported)
	wg.Wait()

	var total float64
	for _, n := range recorded {
		total += float64(n)
	}
	if got := c.Value(); got != total {
		t.Errorf("counter = %v, want %v", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %v", got, total)
	}
	var sites float64
	for _, s := range []string{"a", "b", "c"} {
		sites += cv.With(s).Value()
	}
	if want := 2 * total; sites != want {
		t.Errorf("labeled counters sum to %v, want %v", sites, want)
	}
	if got := h.With("run").Count(); got != uint64(total) {
		t.Errorf("histogram count = %d, want %d", got, uint64(total))
	}
}

// promHistogramConsistent checks one histogram family's exposition in
// a WriteProm output (a single child): its cumulative buckets never
// decrease, and the +Inf bucket equals _count.
func promHistogramConsistent(text, name string) error {
	var cum []uint64
	var inf, count uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"_") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		switch {
		case strings.HasPrefix(line, name+"_bucket"):
			cum = append(cum, v)
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, name+"_count"):
			count = v
		default:
			continue
		}
		if err != nil {
			return fmt.Errorf("%q: %v", line, err)
		}
	}
	if len(cum) == 0 {
		return fmt.Errorf("no %s buckets exported", name)
	}
	return cumulativeConsistent(cum, inf, count)
}

// snapshotHistogramConsistent is promHistogramConsistent over every
// child of the family in a snapshot.
func snapshotHistogramConsistent(snap Snapshot, name string) error {
	f, ok := snap.Family(name)
	if !ok || len(f.Metrics) == 0 {
		return fmt.Errorf("no %s family in the snapshot", name)
	}
	for _, m := range f.Metrics {
		cum := make([]uint64, len(m.Buckets))
		for i, b := range m.Buckets {
			cum[i] = b.Count
		}
		if err := cumulativeConsistent(cum, m.Buckets[len(m.Buckets)-1].Count, *m.Count); err != nil {
			return fmt.Errorf("%v: %v", m.Labels, err)
		}
	}
	return nil
}

func cumulativeConsistent(cum []uint64, inf, count uint64) error {
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			return fmt.Errorf("cumulative buckets decrease: %v", cum)
		}
	}
	if inf != count {
		return fmt.Errorf("+Inf bucket %d, count %d (buckets %v)", inf, count, cum)
	}
	return nil
}

func TestHistogramTimer(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("timer_seconds", "", TimeBuckets)
	stop := h.Time()
	stop()
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if s := h.Sum(); s < 0 {
		t.Errorf("negative elapsed time %v", s)
	}
}

// TestHistogramTimerAllocs pins the allocation-free deferred timer: an
// inlined Time's stop closure stays on the caller's stack.
func TestHistogramTimerAllocs(t *testing.T) {
	h := NewRegistry().NewHistogram("timer_allocs_seconds", "", TimeBuckets)
	if got := testing.AllocsPerRun(100, func() { defer h.Time()() }); got != 0 {
		t.Errorf("defer h.Time()(): %v allocs/op, want 0", got)
	}
}

// TestConcurrentHistogramExact has many goroutines, more than there are
// stripes, observe into one histogram: once they finish, every bucket
// count and Count are exact, and so is Sum, since every value is a
// small integer and integer sums are exact in any order.
func TestConcurrentHistogramExact(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("exact_wait_seconds", "", []float64{0.5, 1, 2, 3})
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64((w + i) % 5))
			}
		}(w)
	}
	wg.Wait()

	// Values 0..4 land in buckets le=0.5, 1, 2, 3 and +Inf.
	var want [5]uint64
	wantSum := 0.0
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			v := (w + i) % 5
			want[v]++
			wantSum += float64(v)
		}
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	snap, _ := r.TakeSnapshot().Family("exact_wait_seconds")
	var cum uint64
	for i, b := range snap.Metrics[0].Buckets {
		cum += want[i]
		if b.Count != cum {
			t.Errorf("bucket le=%s = %d, want %d", b.LE, b.Count, cum)
		}
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("arity_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity accepted")
		}
	}()
	cv.With("only-one")
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(5, 5, 3)
	if len(lin) != 3 || lin[0] != 5 || lin[1] != 10 || lin[2] != 15 {
		t.Errorf("linear = %v", lin)
	}
	exp := ExponentialBuckets(1, 2, 4)
	if len(exp) != 4 || exp[0] != 1 || exp[3] != 8 {
		t.Errorf("exponential = %v", exp)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("served_total", "served counter").Add(9)
	addr, stop, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "served_total 9") {
		t.Errorf("/metrics body:\n%s", buf.String())
	}

	jr, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(jr.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"served_total"`) {
		t.Errorf("/metrics.json body:\n%s", buf.String())
	}

	pr, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("pprof status %d", pr.StatusCode)
	}
}

// wrapperSmokeDerived is registered once per process: a derived
// counter cannot be registered twice, and TestDefaultRegistryWrappers
// must pass when it runs more than once (go test -count=2).
var wrapperSmokeDerived = NewCounterFunc("wrapper_smoke_derived_total", "wrapper test",
	NewCounter("wrapper_smoke_total", "wrapper test").Value)

func TestDefaultRegistryWrappers(t *testing.T) {
	// The package-level constructors must register into Default; names
	// are prefixed to avoid colliding with real instrumented families.
	c := NewCounter("wrapper_smoke_total", "wrapper test")
	c.Inc()
	NewCounterVec("wrapper_smoke_site_total", "wrapper test", "site").With("x").Inc()
	if got, want := wrapperSmokeDerived.Value(), c.Value(); got != want {
		t.Errorf("derived counter = %v, want %v", got, want)
	}
	NewGauge("wrapper_smoke_ratio", "wrapper test").Set(1)
	NewGaugeVec("wrapper_smoke_depth_ratio", "wrapper test", "site").With("x").Set(2)
	NewHistogram("wrapper_smoke_seconds", "wrapper test", TimeBuckets).Observe(0.01)
	NewHistogramVec("wrapper_smoke_wait_seconds", "wrapper test", TimeBuckets, "phase").With("p").Observe(0.01)
	snap := Default.TakeSnapshot()
	for _, name := range []string{
		"wrapper_smoke_total", "wrapper_smoke_site_total", "wrapper_smoke_derived_total", "wrapper_smoke_ratio",
		"wrapper_smoke_depth_ratio", "wrapper_smoke_seconds", "wrapper_smoke_wait_seconds",
	} {
		if _, ok := snap.Family(name); !ok {
			t.Errorf("%s missing from Default snapshot", name)
		}
	}
}
