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

// Shared fixtures: two trained models whose content hashes and
// predictions both differ, and a held-out universe the service answers
// for. Model B clusters the training kernels into four groups instead
// of five, so a reload from A to B changes answers: a retrain with
// another clustering seed changes the hash but not one prediction, and
// a shard that kept A's predictions under B's hash would pass every
// oracle. Training runs once per test binary.
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

// testModels trains (once) and returns two models whose hashes and
// predictions differ.
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
		opts.K = 4
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
// refactor: direct core.SelectUnderCap, the service's single-select
// path (asked twice, so the second answer reuses the shard's compiled
// predictions) and the batch path must agree bitwise — with caps chosen
// to straddle every predicted-frontier breakpoint of every universe
// kernel, where any epsilon drift between paths would flip the winner.
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
			// Path 1: single selects, each asked twice.
			for _, req := range reqs {
				var sels [2]query.Response
				for i := range sels {
					if sels[i], err = s.Select(ctx, req); err != nil {
						t.Fatal(err)
					}
				}
				direct := oracle(t, s, mA, kernel, sels[0].EffectiveCapW, z)
				for i, resp := range sels {
					if resp.Selection != direct {
						t.Fatalf("%s cap=%v z=%v: select %d %+v != direct %+v",
							kernel, req.CapW, z, i+1, resp.Selection, direct)
					}
					if resp.Cached {
						t.Fatalf("%s cap=%v z=%v: select %d claims cached", kernel, req.CapW, z, i+1)
					}
				}
				if sels[1] != sels[0] {
					t.Fatalf("%s cap=%v z=%v: repeated select %+v != first %+v", kernel, req.CapW, z, sels[1], sels[0])
				}
			}
			// Path 2: batch.
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

// fillInFlight parks one selection per slot in g, each
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
// with every in-flight slot held mid-computation, the next selection
// must shed with ErrOverloaded, and releasing the slots must let every
// held selection finish.
func TestAdmissionControlSheds(t *testing.T) {
	mA, _ := testModels(t)
	const maxInFlight = 2
	g := newGate()
	opts := query.Options{MaxInFlight: maxInFlight}
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
	s := newTestService(t, mA, query.Options{MaxInFlight: 1, Faults: inj})
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
// hash and the answers; a reload to identical bytes advances the
// sequence and keeps the hash and the answers (content addressing, not
// generation counting).
func TestReloadInvalidatesByContent(t *testing.T) {
	mA, mB := testModels(t)
	s := newTestService(t, mA, query.Options{})
	ctx := context.Background()
	req := query.Request{Kernel: s.Kernels()[0], CapW: 18}
	sel := func() query.Response {
		t.Helper()
		resp, err := s.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatalf("select claims cached: %+v", resp)
		}
		return resp
	}

	first := sel()
	hashB, seq, err := s.Reload(mB)
	if err != nil {
		t.Fatal(err)
	}
	if hashB == first.ModelHash || seq != 2 {
		t.Fatalf("reload hash %s seq %d", hashB, seq)
	}
	second := sel()
	if second.ModelHash != hashB || second.ModelSeq != 2 {
		t.Fatalf("response hash %s seq %d, want %s seq 2", second.ModelHash, second.ModelSeq, hashB)
	}
	if second.Selection != oracle(t, s, mB, req.Kernel, second.EffectiveCapW, 0) {
		t.Fatal("post-reload selection does not match model B oracle")
	}

	// Same bytes again: new sequence, same hash, same answer.
	hashB2, seq2, err := s.Reload(mB)
	if err != nil {
		t.Fatal(err)
	}
	if hashB2 != hashB || seq2 != 3 {
		t.Fatalf("idempotent reload: hash %s seq %d", hashB2, seq2)
	}
	third := sel()
	if third.ModelSeq != 3 {
		t.Fatalf("response seq %d, want 3", third.ModelSeq)
	}
	third.ModelSeq = second.ModelSeq
	if third != second {
		t.Fatalf("after an identical reload: %+v, want %+v", third, second)
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

// TestEverySelectComputes pins the uncached contract: a repeated
// question is computed every time, under the first model, after a
// byte-identical reload and after a reload to different bytes. Each
// select moves the computed family by one and the hit family by none,
// and no response claims to be cached.
func TestEverySelectComputes(t *testing.T) {
	mA, mB := testModels(t)
	ctx := context.Background()
	s := newTestService(t, mA, query.Options{})
	req := query.Request{Kernel: s.Kernels()[0], CapW: 17.3, Z: 0.5}
	sel := func() query.Response {
		t.Helper()
		hits := counterValue(t, "acsel_query_cache_hits_total")
		misses := counterValue(t, "acsel_query_cache_misses_total")
		resp, err := s.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatalf("select claims cached: %+v", resp)
		}
		if got := counterValue(t, "acsel_query_cache_hits_total") - hits; got != 0 {
			t.Fatalf("hit family moved by %v, want 0", got)
		}
		if got := counterValue(t, "acsel_query_cache_misses_total") - misses; got != 1 {
			t.Fatalf("computed family moved by %v, want 1", got)
		}
		return resp
	}

	first := sel()
	for i := 0; i < 3; i++ {
		if resp := sel(); resp != first {
			t.Fatalf("repeat %d: %+v, want %+v", i+1, resp, first)
		}
	}
	if first.Selection != oracle(t, s, mA, req.Kernel, first.EffectiveCapW, req.Z) {
		t.Fatal("selection under A does not match model A oracle")
	}

	if _, _, err := s.Reload(mA); err != nil {
		t.Fatal(err)
	}
	if resp := sel(); resp.Selection != first.Selection || resp.ModelHash != first.ModelHash {
		t.Fatalf("after an identical reload: %+v, want the selection %+v", resp, first)
	}

	hashB, _, err := s.Reload(mB)
	if err != nil {
		t.Fatal(err)
	}
	underB := sel()
	if underB.ModelHash != hashB {
		t.Fatalf("select under B from %s, want %s", underB.ModelHash, hashB)
	}
	if underB.Selection != oracle(t, s, mB, req.Kernel, underB.EffectiveCapW, req.Z) {
		t.Fatal("selection under B does not match model B oracle")
	}
	if resp := sel(); resp != underB {
		t.Fatalf("repeat under B: %+v, want %+v", resp, underB)
	}
}

// TestSelectAllocs pins the allocation-free request path: the same key
// asked again and a key never asked before both allocate nothing once
// the shard's predictions exist. Each run is SelectSampleEvery serial
// selects, so exactly one of them is timed, and the count is per run:
// testing.AllocsPerRun rounds down, which would hide an allocation
// made once in 64 calls.
func TestSelectAllocs(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	ctx := context.Background()
	hot := query.Request{Kernel: s.Kernels()[0], CapW: 21}
	if _, err := s.Select(ctx, hot); err != nil { // computes the predictions
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < query.SelectSampleEvery; i++ {
			if _, err := s.Select(ctx, hot); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("hot key: %v allocs per %d selects, want 0", got, query.SelectSampleEvery)
	}

	capW := 30.0
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < query.SelectSampleEvery; i++ {
			capW += s.CapQuantumW() // a key never asked before
			if _, err := s.Select(ctx, query.Request{Kernel: hot.Kernel, CapW: capW}); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("fresh key: %v allocs per %d selects, want 0", got, query.SelectSampleEvery)
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
// The sweep runs twice: on a fresh service, which compiles each
// shard's predictions on first use, and again after a byte-identical
// reload, which reuses them. No response may claim to be cached.
func TestSelectMetamorphic(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	ctx := context.Background()
	zs := []float64{0, 0.5, 1, 2}
	const gridPerW, maxCapW = 32, 60
	caps := []float64{-1e308}
	for i := 0; i <= maxCapW*gridPerW; i++ {
		caps = append(caps, float64(i)/gridPerW)
	}
	caps = append(caps, 1e308)

	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if _, _, err := s.Reload(mA); err != nil {
				t.Fatal(err)
			}
		}
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
						at("response claims cached")
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
	}
}
