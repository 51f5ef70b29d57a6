package query_test

import (
	"context"
	"errors"
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
func testUniverse(t *testing.T) []kernels.Kernel {
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
func testModels(t *testing.T) (*core.Model, *core.Model) {
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

func newTestService(t *testing.T, m *core.Model, opts query.Options) *query.Service {
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
// refactor: direct core.SelectUnderCap, the service's compute path, the
// cache path, and the batch path must agree bitwise — with caps chosen
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
		frontier, _, err := mA.PredictedFrontier(sr)
		if err != nil {
			t.Fatal(err)
		}
		var caps []float64
		for _, pt := range frontier.Points() {
			caps = append(caps, pt.Power-eps, pt.Power+eps)
		}
		for _, z := range []float64{0, 1.5} {
			var reqs []query.Request
			for _, capW := range caps {
				reqs = append(reqs, query.Request{Kernel: kernel, CapW: capW, Z: z})
			}
			// Path 1: compute (cold). Path 2: cache (immediately after).
			for _, req := range reqs {
				cold, err := s.Select(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := s.Select(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				direct := oracle(t, s, mA, kernel, cold.EffectiveCapW, z)
				if cold.Selection != direct {
					t.Fatalf("%s cap=%v z=%v: compute path %+v != direct %+v",
						kernel, req.CapW, z, cold.Selection, direct)
				}
				if warm.Selection != direct {
					t.Fatalf("%s cap=%v z=%v: cache path %+v != direct %+v",
						kernel, req.CapW, z, warm.Selection, direct)
				}
				if !warm.Cached {
					t.Fatalf("%s cap=%v z=%v: second select not cached", kernel, req.CapW, z)
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
	if _, err := s.Select(context.Background(), req); !errors.Is(err, query.ErrOverloaded) {
		t.Fatalf("select with every slot held: %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
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
