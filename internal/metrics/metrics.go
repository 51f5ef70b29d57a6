// Package metrics is a stdlib-only, concurrency-safe metrics registry
// for the runtime observability layer: counters, gauges, and
// fixed-bucket histograms, with labeled ("vec") variants, Prometheus
// text exposition, and a deterministic JSON snapshot.
//
// The paper's whole contribution is making good decisions from
// measurements; this package turns the runtime system itself into a
// measured subject. Record paths are allocation-free and lock-free: a
// counter keeps Inc's increments in an integer word, so Inc is one
// atomic add, and Add's in a float64-bits word beside it; a gauge is a
// single float64-bits word. A histogram is striped: it keeps its bucket
// counts and float sum once per stripe, each stripe on cache lines of
// its own, and an observation is a binary search plus an atomic add to
// its bucket and its sum in the stripe of the P it runs on, so
// concurrent observers neither share a line nor retry one another's
// compare-and-swap. The readers (Count, Quantile, Sum, both exporters)
// add up the stripes. A histogram keeps no separate count: the count is
// the sum of the buckets, so an export taken mid-observation is still
// internally consistent. Label lookup (With) takes a read lock and may
// allocate on first use of a label combination, so hot paths should
// hold the returned child handle.
//
// Non-finite inputs are dropped at the door: a NaN or infinite
// observation would poison sums and serialize badly, so Add/Set/Observe
// silently ignore them (and counters ignore negative increments, which
// would break monotonicity). Telemetry must never be the thing that
// crashes the system it watches.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the metric families' types.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind in Prometheus TYPE-line vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// TimeBuckets is the default bucket layout for wall-time histograms, in
// seconds. It spans the repo's realistic range: sub-millisecond kernel
// iterations up to multi-second characterization phases.
var TimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// PowerBuckets is the default bucket layout for wattage histograms,
// spanning the simulated APU's 5–60 W package range.
var PowerBuckets = LinearBuckets(5, 5, 12)

// LinearBuckets returns count buckets of the given width starting at
// start: start, start+width, ...
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExponentialBuckets returns count buckets growing geometrically from
// start by factor.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// finite reports whether v is an ordinary float64.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// addFloat atomically adds delta to the float64 stored as bits in word.
func addFloat(word *atomic.Uint64, delta float64) {
	for {
		old := word.Load()
		upd := math.Float64bits(math.Float64frombits(old) + delta)
		if word.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Counter is a monotonically increasing metric. The zero value is
// usable but unregistered; obtain counters from a Registry.
type Counter struct {
	n    atomic.Uint64 // increments by Inc
	bits atomic.Uint64 // float64 bits of the sum of Add's increments
	// fn, set only on a counter built by NewCounterFunc, is its value.
	fn func() float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increases the counter by v. Negative and non-finite deltas are
// ignored: counters are monotone by contract.
func (c *Counter) Add(v float64) {
	if v < 0 || !finite(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count: the sum of both words, or fn() for a
// counter built by NewCounterFunc.
func (c *Counter) Value() float64 {
	if c.fn != nil {
		return c.fn()
	}
	return float64(c.n.Load()) + math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Non-finite values are ignored.
func (g *Gauge) Set(v float64) {
	if !finite(v) {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (which may be negative). Non-finite
// deltas are ignored.
func (g *Gauge) Add(delta float64) {
	if !finite(delta) {
		return
	}
	addFloat(&g.bits, delta)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// stripes is the number of stripes each histogram keeps: the next
// power of two at or above GOMAXPROCS when the package initializes.
var stripes = 1 << bits.Len(uint(runtime.GOMAXPROCS(0)-1))

// stripeToken names the stripe an observation records into.
// stripePool hands tokens out, and a sync.Pool keeps one item per P
// that the next Get on that P returns, so observations on one P keep
// recording into one stripe, and observations on different Ps into
// different stripes, as long as there are no more Ps than stripes.
// Tokens grant affinity, not ownership: every stripe word is updated
// atomically, so two goroutines on one stripe are still correct.
type stripeToken struct{ stripe int }

var (
	// stripeTokens is allocated up front so the pool's New, which runs
	// again after a garbage collection empties the pool, never
	// allocates.
	stripeTokens = make([]stripeToken, stripes)
	nextStripe   atomic.Uint32
	stripePool   = sync.Pool{New: func() any {
		return &stripeTokens[int(nextStripe.Add(1)-1)&(stripes-1)]
	}}
)

// cacheLineWords is the number of 64-bit words in a cache line.
const cacheLineWords = 8

func init() {
	for i := range stripeTokens {
		stripeTokens[i].stripe = i
	}
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative at
// export, Prometheus-style, with an implicit +Inf bucket.
type Histogram struct {
	upper []float64 // sorted finite upper bounds
	// cells holds the stripes back to back, stride words apart: stripe
	// s keeps the float64 bits of its sum at s*stride and its bucket
	// counts, the last one +Inf, from s*stride+1. The stride leaves at
	// least a cache line minus one word between the last word of a
	// stripe and the first of the next, so no two stripes share a line
	// wherever the slice starts.
	cells  []atomic.Uint64
	stride int
}

func newHistogram(upper []float64) *Histogram {
	words := len(upper) + 2 // the sum, the finite buckets, +Inf
	stride := (words + 2*cacheLineWords - 2) / cacheLineWords * cacheLineWords
	return &Histogram{
		upper:  upper,
		cells:  make([]atomic.Uint64, stripes*stride),
		stride: stride,
	}
}

// Observe records one value. Non-finite observations are ignored.
func (h *Histogram) Observe(v float64) {
	if !finite(v) {
		return
	}
	// First bucket whose upper bound is >= v (le semantics); values
	// above every bound land in the trailing +Inf bucket.
	i := sort.SearchFloat64s(h.upper, v)
	t := stripePool.Get().(*stripeToken)
	base := t.stripe * h.stride
	h.cells[base+1+i].Add(1)
	addFloat(&h.cells[base], v)
	stripePool.Put(t)
}

// monoEpoch anchors Time's clock readings: time.Since of a Time that
// carries a monotonic reading reads only the monotonic clock, which
// costs about half of what time.Now does.
var monoEpoch = time.Now()

// Time starts a phase timer on the monotonic clock; the returned stop
// function observes the elapsed seconds. Use for named pipeline stages:
//
//	stop := phaseSeconds.With("characterize").Time()
//	... work ...
//	stop()
func (h *Histogram) Time() func() {
	start := monoNow()
	return func() { h.Observe((monoNow() - start).Seconds()) }
}

// monoNow reads the monotonic clock as the time since monoEpoch. It
// is kept out of line so that Time stays small enough to inline: an
// inlined Time's stop closure does not escape, so a deferred timer
// does not allocate.
//
//go:noinline
func monoNow() time.Duration { return time.Since(monoEpoch) }

// bucket returns bucket i's count, summed over the stripes.
func (h *Histogram) bucket(i int) uint64 {
	var n uint64
	for base := 1 + i; base < len(h.cells); base += h.stride {
		n += h.cells[base].Load()
	}
	return n
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := 0; i <= len(h.upper); i++ {
		n += h.bucket(i)
	}
	return n
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation within the containing bucket, the standard
// fixed-bucket estimator. Values in the trailing +Inf bucket clamp to
// the last finite bound (the histogram cannot resolve beyond it).
// Returns NaN for an empty histogram or non-finite q.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i := 0; i <= len(h.upper); i++ {
		c := h.bucket(i)
		if c > 0 && float64(cum)+float64(c) >= rank {
			if i >= len(h.upper) {
				return lower
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + (h.upper[i]-lower)*frac
		}
		cum += c
		if i < len(h.upper) {
			lower = h.upper[i]
		}
	}
	return lower
}

// Sum returns the sum of observations: the stripes' sums, added in
// stripe order.
func (h *Histogram) Sum() float64 {
	sum := 0.0
	for base := 0; base < len(h.cells); base += h.stride {
		sum += math.Float64frombits(h.cells[base].Load())
	}
	return sum
}

// Buckets returns the finite upper bounds.
func (h *Histogram) Buckets() []float64 { return append([]float64(nil), h.upper...) }

// metric is the union of the three concrete types inside a family.
type metric struct {
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// family is one named metric with its labeled children. A plain
// (unlabeled) metric is a family with a single child under the empty
// key.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64      // histogram families only
	fn      func() float64 // derived counter families only

	mu       sync.RWMutex
	children map[string]metric
}

// labelSep joins label values into child keys; it cannot occur in UTF-8
// text, so joined keys are unambiguous.
const labelSep = "\xff"

func (f *family) child(values []string) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m = metricFor(f)
	f.children[key] = m
	return m
}

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// With returns the counter for one label-value combination, creating it
// on first use. Hold the handle on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.child(values).counter }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.child(values).gauge }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ fam *family }

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.child(values).histogram }

// Registry owns a set of metric families. The zero value is not usable;
// call NewRegistry. Default is the process-wide registry the
// instrumented packages record into.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Default is the process-wide registry; the package-level constructors
// register into it.
var Default = NewRegistry()

// ValidName reports whether name is an acceptable metric name:
// snake_case ASCII — lowercase letters and digits in underscore-joined
// runs, starting with a letter, no empty runs. Unit-suffix conventions
// (_total, _seconds, _watts, ...) are enforced statically by the
// acsel-lint metricname analyzer.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, run := range strings.Split(name, "_") {
		if run == "" {
			return false
		}
		for j, r := range run {
			switch {
			case r >= 'a' && r <= 'z':
			case r >= '0' && r <= '9':
				if i == 0 && j == 0 {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

// register returns the family for (name, kind, help, labels, buckets,
// fn), creating it if new. Re-registering an identical specification
// returns the existing family — package-level metric vars may be
// re-evaluated by tests — while a conflicting specification panics: two
// meanings for one name is a bug worth failing loudly over. Functions
// do not compare, so a derived counter (fn non-nil) never re-registers.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64, fn func() float64) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q (want snake_case)", name))
	}
	for _, l := range labels {
		if !ValidName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	if kind == KindHistogram {
		buckets = normalizeBuckets(name, buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) ||
			f.fn != nil || fn != nil {
			panic(fmt.Sprintf("metrics: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		fn:       fn,
		children: map[string]metric{},
	}
	if len(labels) == 0 {
		// Materialize the single child now so the family exports even
		// before its first record — a registered-but-silent metric at 0
		// is signal, an absent one is a hole in the inventory.
		f.mu.Lock()
		f.children[""] = metricFor(f)
		f.mu.Unlock()
	}
	r.fams[name] = f
	return f
}

func metricFor(f *family) metric {
	switch f.kind {
	case KindCounter:
		return metric{counter: &Counter{fn: f.fn}}
	case KindGauge:
		return metric{gauge: &Gauge{}}
	default:
		return metric{histogram: newHistogram(f.buckets)}
	}
}

// normalizeBuckets sorts, dedupes, and validates histogram bounds,
// dropping a trailing +Inf (it is implicit).
func normalizeBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	out := append([]float64(nil), buckets...)
	sort.Float64s(out)
	if math.IsInf(out[len(out)-1], 1) {
		out = out[:len(out)-1]
	}
	dst := out[:0]
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %q has non-finite bucket bound", name))
		}
		if i > 0 && b == out[i-1] { //lint:ignore floatcmp bucket dedupe wants exact bound identity
			continue
		}
		dst = append(dst, b)
	}
	if len(dst) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q has no finite buckets", name))
	}
	return dst
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //lint:ignore floatcmp bucket layouts compare by exact identity
			return false
		}
	}
	return true
}

// NewCounter registers (or finds) a plain counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil, nil).child(nil).counter
}

// NewCounterFunc registers a counter whose value is fn(), read at
// export, in snapshots and by Value. It exports a count derived from
// other counters, so that each event is counted once, where it happens.
// fn must be monotone and safe for concurrent use. The returned
// counter only reads: Inc and Add on it do not change its value.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *Counter {
	return r.register(name, help, KindCounter, nil, nil, fn).child(nil).counter
}

// NewCounterVec registers (or finds) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, nil, nil)}
}

// NewGauge registers (or finds) a plain gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil, nil).child(nil).gauge
}

// NewGaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, nil, nil)}
}

// NewHistogram registers (or finds) a plain histogram with the given
// bucket upper bounds (+Inf implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, buckets, nil).child(nil).histogram
}

// NewHistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labels, buckets, nil)}
}

// NewCounter registers a plain counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewCounterFunc registers a derived counter in Default.
func NewCounterFunc(name, help string, fn func() float64) *Counter {
	return Default.NewCounterFunc(name, help, fn)
}

// NewCounterVec registers a labeled counter family in Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewGauge registers a plain gauge in Default.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGaugeVec registers a labeled gauge family in Default.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labels...)
}

// NewHistogram registers a plain histogram in Default.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// NewHistogramVec registers a labeled histogram family in Default.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}
