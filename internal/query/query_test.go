package query_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/metrics"
	"acsel/internal/profiler"
	"acsel/internal/query"
)

// Shared fixtures: two trained models with different content hashes
// (seed-perturbed retrain) and a held-out universe the service answers
// for. Training runs once per test binary.
var (
	fixOnce sync.Once
	fixA    *core.Model
	fixB    *core.Model
	fixErr  error
)

// testUniverse is the serving universe: the LULESH/Small kernels, held
// out of training exactly like the paper's leave-benchmark-out split.
func testUniverse(t testing.TB) []kernels.Kernel {
	t.Helper()
	for _, c := range kernels.Combos() {
		if c.Benchmark == "LULESH" && c.Input == "Small" {
			return c.Kernels
		}
	}
	t.Fatal("no LULESH/Small combo")
	return nil
}

// testModels trains (once) and returns two models whose hashes differ.
func testModels(t testing.TB) (*core.Model, *core.Model) {
	t.Helper()
	fixOnce.Do(func() {
		var ks []kernels.Kernel
		for _, c := range kernels.Combos() {
			if c.Benchmark == "LULESH" {
				continue
			}
			ks = append(ks, c.Kernels...)
		}
		p := profiler.New()
		opts := core.DefaultTrainOptions()
		opts.Iterations = 1
		profs, err := core.Characterize(p, ks, opts)
		if err != nil {
			fixErr = err
			return
		}
		if fixA, fixErr = core.Train(p.Space, profs, opts); fixErr != nil {
			return
		}
		opts.Seed++
		fixB, fixErr = core.Train(p.Space, profs, opts)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixA, fixB
}

func newTestService(t testing.TB, m *core.Model, opts query.Options) *query.Service {
	t.Helper()
	if len(opts.Kernels) == 0 {
		opts.Kernels = testUniverse(t)
	}
	s, err := query.NewService(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// oracle computes the single-threaded reference selection for one
// model at the effective cap, through the very same SampleRuns the
// service precomputed.
func oracle(t *testing.T, s *query.Service, m *core.Model, kernel string, effCapW, z float64) core.Selection {
	t.Helper()
	sr, ok := s.SampleRuns(kernel)
	if !ok {
		t.Fatalf("no shard for %s", kernel)
	}
	var sel core.Selection
	var err error
	if z > 0 {
		sel, err = m.SelectUnderCapVarAware(sr, effCapW, z)
	} else {
		sel, err = m.SelectUnderCap(sr, effCapW)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestSelectMatchesOracle(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	ctx := context.Background()
	for _, kernel := range s.Kernels() {
		for _, capW := range []float64{6, 14.3, 25, 38} {
			resp, err := s.Select(ctx, query.Request{Kernel: kernel, CapW: capW})
			if err != nil {
				t.Fatalf("%s cap=%v: %v", kernel, capW, err)
			}
			want := oracle(t, s, mA, kernel, resp.EffectiveCapW, 0)
			if resp.Selection != want {
				t.Fatalf("%s cap=%v: service %+v != oracle %+v", kernel, capW, resp.Selection, want)
			}
			if resp.CapW != capW {
				t.Fatalf("response echoes cap %v, want %v", resp.CapW, capW)
			}
			if q := query.QuantizeCapW(capW, s.CapQuantumW()); resp.EffectiveCapW != q {
				t.Fatalf("effective cap %v, want %v", resp.EffectiveCapW, q)
			}
		}
	}
}

// TestSelectPathsBitwiseIdentical is the regression test for the
// refactor: direct core.SelectUnderCap, the service's compute path (a
// first miss and the miss that admits the key), the cache path, and the
// batch path must agree bitwise — with caps chosen to straddle every
// predicted-frontier breakpoint of every universe kernel, where any
// epsilon drift between paths would flip the winner.
func TestSelectPathsBitwiseIdentical(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{MaxBatch: 1024})
	ctx := context.Background()
	// Straddle offset: larger than the cap quantum, so cap-epsilon and
	// cap+epsilon stay distinct after quantization.
	eps := 4 * s.CapQuantumW()
	for _, kernel := range s.Kernels() {
		sr, ok := s.SampleRuns(kernel)
		if !ok {
			t.Fatal("missing shard")
		}
		frontier, err := mA.PredictedFrontier(sr)
		if err != nil {
			t.Fatal(err)
		}
		var caps []float64
		for _, p := range frontier.Frontier(0) {
			caps = append(caps, p.PowerW-eps, p.PowerW+eps)
		}
		for _, z := range []float64{0, 1.5} {
			var reqs []query.Request
			for _, capW := range caps {
				reqs = append(reqs, query.Request{Kernel: kernel, CapW: capW, Z: z})
			}
			// Path 1: compute (cold, then the admitting second miss).
			// Path 2: cache (the third select).
			for _, req := range reqs {
				var sels [3]query.Response
				for i := range sels {
					if sels[i], err = s.Select(ctx, req); err != nil {
						t.Fatal(err)
					}
				}
				cold, second, warm := sels[0], sels[1], sels[2]
				direct := oracle(t, s, mA, kernel, cold.EffectiveCapW, z)
				for i, resp := range sels {
					if resp.Selection != direct {
						t.Fatalf("%s cap=%v z=%v: select %d %+v != direct %+v",
							kernel, req.CapW, z, i+1, resp.Selection, direct)
					}
				}
				if cold.Cached || second.Cached {
					t.Fatalf("%s cap=%v z=%v: a miss claims cached (cold %v, second %v)",
						kernel, req.CapW, z, cold.Cached, second.Cached)
				}
				if !warm.Cached {
					t.Fatalf("%s cap=%v z=%v: third select not cached", kernel, req.CapW, z)
				}
			}
			// Path 3: batch.
			resps, errs, err := s.SelectBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, resp := range resps {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				direct := oracle(t, s, mA, kernel, resp.EffectiveCapW, z)
				if resp.Selection != direct {
					t.Fatalf("%s cap=%v z=%v: batch path %+v != direct %+v",
						kernel, reqs[i].CapW, z, resp.Selection, direct)
				}
			}
		}
	}
}

func TestSelectTypedErrors(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{MaxBatch: 3})
	ctx := context.Background()
	if _, err := s.Select(ctx, query.Request{Kernel: "", CapW: 20}); !errors.Is(err, query.ErrBadRequest) {
		t.Fatalf("empty kernel: %v", err)
	}
	if _, err := s.Select(ctx, query.Request{Kernel: "No/Such/Kernel", CapW: 20}); !errors.Is(err, query.ErrUnknownKernel) {
		t.Fatalf("unknown kernel: %v", err)
	}
	if _, err := s.Select(ctx, query.Request{Kernel: s.Kernels()[0], CapW: 20, Z: -1}); !errors.Is(err, query.ErrBadRequest) {
		t.Fatalf("negative z: %v", err)
	}
	if _, _, err := s.SelectBatch(ctx, make([]query.Request, 4)); !errors.Is(err, query.ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	s.Close()
	before := requestsWithOutcome(t, "error")
	if _, err := s.Select(ctx, query.Request{Kernel: s.Kernels()[0], CapW: 20}); !errors.Is(err, query.ErrClosed) {
		t.Fatalf("closed service: %v", err)
	}
	if got := requestsWithOutcome(t, "error") - before; got != 1 {
		t.Fatalf("error outcomes counted for a closed service: %v, want 1", got)
	}
}

// gate holds selections after they take their in-flight slot until
// release is closed; from then on it lets every selection straight
// through.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) hold() {
	select {
	case g.entered <- struct{}{}:
		<-g.release
	case <-g.release:
	}
}

// fillInFlight parks one cache-missing selection per slot in g, each
// from its own goroutine, and returns the channel their errors arrive
// on once g is released.
func fillInFlight(s *query.Service, g *gate, slots int) <-chan error {
	errs := make(chan error, slots)
	for i := 0; i < slots; i++ {
		req := query.Request{Kernel: s.Kernels()[i], CapW: 10}
		go func() {
			_, err := s.Select(context.Background(), req)
			errs <- err
		}()
		<-g.entered
	}
	return errs
}

// requestsWithOutcome reads acsel_query_requests_total{outcome} from
// the process registry.
func requestsWithOutcome(t *testing.T, outcome string) float64 {
	t.Helper()
	fam, ok := metrics.Default.TakeSnapshot().Family("acsel_query_requests_total")
	if !ok {
		t.Fatal("acsel_query_requests_total not registered")
	}
	for _, m := range fam.Metrics {
		if m.Labels["outcome"] == outcome {
			return *m.Value
		}
	}
	return 0
}

// TestAdmissionControlSheds pins the overload path deterministically:
// with every in-flight slot held mid-computation, the next cache miss
// must shed with ErrOverloaded, and releasing the slots must let every
// held selection finish.
func TestAdmissionControlSheds(t *testing.T) {
	mA, _ := testModels(t)
	const maxInFlight = 2
	g := newGate()
	opts := query.Options{
		MaxInFlight: maxInFlight,
		CacheSize:   -1, // no cache: every request must take a slot
	}
	opts.SetComputeGate(g.hold)
	s := newTestService(t, mA, opts)

	held := fillInFlight(s, g, maxInFlight)
	req := query.Request{Kernel: s.Kernels()[maxInFlight], CapW: 14}
	before := s.Stats().Shed
	if _, err := s.Select(context.Background(), req); !errors.Is(err, query.ErrOverloaded) {
		t.Fatalf("select with every slot held: %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Shed - before; got != 1 {
		t.Fatalf("shed counter moved by %d, want 1", got)
	}

	close(g.release)
	for i := 0; i < maxInFlight; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held selection: %v", err)
		}
	}
	if _, err := s.Select(context.Background(), req); err != nil {
		t.Fatalf("select after release: %v", err)
	}
}

// TestSlowShardHonoursDeadline: a selection slowed past its deadline by
// the slow-shard fault returns the context's error, counts the deadline
// outcome and gives its slot back.
func TestSlowShardHonoursDeadline(t *testing.T) {
	mA, _ := testModels(t)
	inj := fault.NewInjector(fault.Scenario{
		Name:        "query-slow-shard",
		Description: "every kernel answers slowly",
		Rules: []fault.Rule{
			{Site: fault.SiteNet, Kind: fault.NetDelay, Prob: 1, Magnitude: 1000},
		},
	}, 7)
	s := newTestService(t, mA, query.Options{MaxInFlight: 1, CacheSize: -1, Faults: inj})
	req := query.Request{Kernel: s.Kernels()[0], CapW: 20}

	before := requestsWithOutcome(t, "deadline")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := s.Select(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slowed select under a 1ms deadline: %v, want DeadlineExceeded", err)
	}
	if got := requestsWithOutcome(t, "deadline") - before; got != 1 {
		t.Fatalf("deadline outcomes counted: %v, want 1", got)
	}
	if _, err := s.Select(context.Background(), req); err != nil {
		t.Fatalf("select after a deadline: %v (slot not released?)", err)
	}
}

// TestReloadInvalidatesByContent: a reload to different bytes swaps the
// hash and drops cached selections; a reload to identical bytes keeps
// the cache warm (content addressing, not generation counting).
func TestReloadInvalidatesByContent(t *testing.T) {
	mA, mB := testModels(t)
	s := newTestService(t, mA, query.Options{})
	ctx := context.Background()
	req := query.Request{Kernel: s.Kernels()[0], CapW: 18}

	first, err := s.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first select claims cached")
	}
	if s.CacheLen() != 0 {
		t.Fatalf("cache holds %d entries after one miss, want 0", s.CacheLen())
	}
	again, err := s.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached || again.Selection != first.Selection {
		t.Fatalf("second select %+v, want an uncached repeat of %+v", again, first)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.CacheLen())
	}

	hashB, seq, err := s.Reload(mB)
	if err != nil {
		t.Fatal(err)
	}
	if hashB == first.ModelHash || seq != 2 {
		t.Fatalf("reload hash %s seq %d", hashB, seq)
	}
	if s.CacheLen() != 0 {
		t.Fatalf("cache holds %d entries after content change, want 0", s.CacheLen())
	}
	second, err := s.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("cache survived a content change")
	}
	if second.ModelHash != hashB {
		t.Fatalf("response hash %s, want %s", second.ModelHash, hashB)
	}
	if second.Selection != oracle(t, s, mB, req.Kernel, second.EffectiveCapW, 0) {
		t.Fatal("post-reload selection does not match model B oracle")
	}

	// Same bytes again: new sequence, same hash, warm cache.
	hashB2, seq2, err := s.Reload(mB)
	if err != nil {
		t.Fatal(err)
	}
	if hashB2 != hashB || seq2 != 3 {
		t.Fatalf("idempotent reload: hash %s seq %d", hashB2, seq2)
	}
	third, err := s.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("byte-identical reload dropped the cache")
	}
	if third.Selection != second.Selection {
		t.Fatal("cached selection differs from computed one")
	}
}

func TestQuantizeCapW(t *testing.T) {
	cases := []struct{ capW, quantum, want float64 }{
		{20, 0.03125, 20},
		{20.01, 0.03125, 20},
		{20.04, 0.03125, 20.03125},
		{-3.1, 0.03125, -3.125},
		{7.7, 0, 7.7},
		{7.7, -1, 7.7},
		// capW/quantum overflows: the cap is already a multiple.
		{1e308, 0.03125, 1e308},
		{-1e308, 0.03125, -1e308},
		{math.MaxFloat64, 0.03125, math.MaxFloat64},
		{-math.MaxFloat64, 0.03125, -math.MaxFloat64},
	}
	for _, c := range cases {
		if got := query.QuantizeCapW(c.capW, c.quantum); got != c.want {
			t.Errorf("QuantizeCapW(%v, %v) = %v, want %v", c.capW, c.quantum, got, c.want)
		}
	}
}

func TestUnknownKernelHasNoShard(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	if _, ok := s.SampleRuns("No/Such/Kernel"); ok {
		t.Fatal("sample runs for unknown kernel")
	}
}

// counterValue reads an unlabeled counter from the process registry.
func counterValue(t *testing.T, name string) float64 {
	t.Helper()
	fam, ok := metrics.Default.TakeSnapshot().Family(name)
	if !ok || len(fam.Metrics) != 1 {
		t.Fatalf("%s not registered as one series", name)
	}
	return *fam.Metrics[0].Value
}

// TestCacheAdmitsOnSecondMiss pins the admission contract: a selection
// is cached on its second miss and served from the cache from its third
// request on; a disabled cache never holds anything; and the doorkeeper
// outlives reloads while the entries follow the model's content hash.
func TestCacheAdmitsOnSecondMiss(t *testing.T) {
	mA, mB := testModels(t)
	ctx := context.Background()
	s := newTestService(t, mA, query.Options{})
	req := query.Request{Kernel: s.Kernels()[0], CapW: 17.3, Z: 0.5}
	sel := func() query.Response {
		t.Helper()
		resp, err := s.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	declined := counterValue(t, "acsel_query_cache_declined_total")
	first := sel()
	if first.Cached || s.CacheLen() != 0 {
		t.Fatalf("first select: cached %v, %d entries; want a miss that inserts nothing", first.Cached, s.CacheLen())
	}
	if got := counterValue(t, "acsel_query_cache_declined_total") - declined; got != 1 {
		t.Fatalf("declined inserts after the first miss: %v, want 1", got)
	}
	second := sel()
	if second.Cached || s.CacheLen() != 1 {
		t.Fatalf("second select: cached %v, %d entries; want a miss that inserts", second.Cached, s.CacheLen())
	}
	if got := counterValue(t, "acsel_query_cache_declined_total") - declined; got != 1 {
		t.Fatalf("declined inserts after the second miss: %v, want 1", got)
	}
	third := sel()
	if !third.Cached {
		t.Fatal("third select not served from the cache")
	}
	third.Cached = false
	if third != first || second != first {
		t.Fatalf("responses differ: %+v, %+v, %+v", first, second, third)
	}

	// A byte-identical reload keeps the entry.
	if _, _, err := s.Reload(mA); err != nil {
		t.Fatal(err)
	}
	if resp := sel(); !resp.Cached || resp.Selection != first.Selection {
		t.Fatalf("after an identical reload: %+v, want the cached selection", resp)
	}

	// A reload to different bytes drops the entry, but the doorkeeper
	// remembers the key: its first miss under model B is admitted.
	hashB, _, err := s.Reload(mB)
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheLen() != 0 {
		t.Fatalf("cache holds %d entries after a content change, want 0", s.CacheLen())
	}
	underB := sel()
	if underB.Cached || underB.ModelHash != hashB || s.CacheLen() != 1 {
		t.Fatalf("first select under B: cached %v, hash %s, %d entries; want an admitted miss under %s",
			underB.Cached, underB.ModelHash, s.CacheLen(), hashB)
	}
	if underB.Selection != oracle(t, s, mB, req.Kernel, underB.EffectiveCapW, req.Z) {
		t.Fatal("selection under B does not match model B oracle")
	}
	if resp := sel(); !resp.Cached || resp.ModelHash != hashB || resp.Selection != underB.Selection {
		t.Fatalf("second select under B: %+v, want B's cached selection", resp)
	}

	// CacheSize < 0 disables caching outright.
	off := newTestService(t, mA, query.Options{CacheSize: -1})
	for i := 0; i < 3; i++ {
		resp, err := off.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || off.CacheLen() != 0 {
			t.Fatalf("disabled cache, select %d: cached %v, %d entries", i+1, resp.Cached, off.CacheLen())
		}
	}
}

// TestSelectAllocs pins the allocation-free request path: a cache hit
// and a first miss (computed, then declined by the doorkeeper) allocate
// nothing once the shard's predictions exist.
func TestSelectAllocs(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	ctx := context.Background()
	hot := query.Request{Kernel: s.Kernels()[0], CapW: 21}
	for i := 0; i < 3; i++ { // computes the predictions, admits, hits
		if _, err := s.Select(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if resp, err := s.Select(ctx, hot); err != nil || !resp.Cached {
			t.Fatalf("hit: cached %v, %v", resp.Cached, err)
		}
	}); got != 0 {
		t.Errorf("cache hit: %v allocs/op, want 0", got)
	}

	capW := 30.0
	if got := testing.AllocsPerRun(100, func() {
		capW += s.CapQuantumW() // a key never asked before
		if resp, err := s.Select(ctx, query.Request{Kernel: hot.Kernel, CapW: capW}); err != nil || resp.Cached {
			t.Fatalf("first miss: cached %v, %v", resp.Cached, err)
		}
	}); got != 0 {
		t.Errorf("first miss: %v allocs/op, want 0", got)
	}
}

// TestSelectMetamorphic checks, through the service, properties the
// paper's selection rule implies, and bitwise agreement with
// core.SelectAmong. For every universe kernel, caps sweep a 1/32 W grid
// over 0–60 W plus ±1e308 at z ∈ {0, ½, 1, 2}:
//
//   - EffectiveCapW is finite and never above CapW;
//   - predicted performance never falls as the cap rises (from a cap
//     the selection is predicted to meet, or at any cap for z = 0: the
//     minimum-power fallback can outperform the first config whose
//     margin fits);
//   - predicted performance never rises as z rises, where the larger
//     margin is predicted to be met;
//   - every response equals core.SelectAmong over the model's own
//     predictions at the effective cap.
//
// The sweep runs three times, so every key is served as a first miss,
// then as the miss that admits it, then (doorkeeper collisions aside)
// from the cache.
func TestSelectMetamorphic(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{CacheSize: 1 << 18})
	ctx := context.Background()
	zs := []float64{0, 0.5, 1, 2}
	const gridPerW, maxCapW = 32, 60
	caps := []float64{-1e308}
	for i := 0; i <= maxCapW*gridPerW; i++ {
		caps = append(caps, float64(i)/gridPerW)
	}
	caps = append(caps, 1e308)

	for pass := 0; pass < 3; pass++ {
		cached := 0
		for _, kernel := range s.Kernels() {
			sr, _ := s.SampleRuns(kernel)
			preds, cluster, err := mA.PredictAll(sr)
			if err != nil {
				t.Fatal(err)
			}
			prevCap := make([]core.Selection, len(zs))
			for ci, capW := range caps {
				var smallerZ core.Selection // this cap's pick at the previous z
				for zi, z := range zs {
					resp, err := s.Select(ctx, query.Request{Kernel: kernel, CapW: capW, Z: z})
					if err != nil {
						t.Fatal(err)
					}
					at := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("pass %d %s cap %v z %v: "+format, append([]any{pass + 1, kernel, capW, z}, args...)...)
					}
					if resp.Cached {
						cached++
					}
					eff := resp.EffectiveCapW
					if math.IsNaN(eff) || math.IsInf(eff, 0) || eff > capW {
						at("effective cap %v", eff)
					}
					want, err := core.SelectAmong(preds, cluster, eff, z)
					if err != nil {
						t.Fatal(err)
					}
					if resp.Selection != want {
						at("service %+v != SelectAmong %+v", resp.Selection, want)
					}
					sel := resp.Selection
					if prev := prevCap[zi]; ci > 0 && (prev.MeetsCapPredicted || z == 0) && sel.Predicted.Perf < prev.Predicted.Perf {
						at("predicted perf fell from %v to %v as the cap rose", prev.Predicted.Perf, sel.Predicted.Perf)
					}
					if zi > 0 && sel.MeetsCapPredicted &&
						(!smallerZ.MeetsCapPredicted || smallerZ.Predicted.Perf < sel.Predicted.Perf) {
						at("picks %+v, above z %v's %+v", sel.Predicted, zs[zi-1], smallerZ.Predicted)
					}
					prevCap[zi], smallerZ = sel, sel
				}
			}
		}
		switch {
		case pass < 2 && cached != 0:
			t.Fatalf("pass %d: %d responses cached before their key's second miss", pass+1, cached)
		case pass == 2 && cached == 0:
			t.Fatal("pass 3: no response served from the cache")
		}
	}
}
