package query_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/query"
	"acsel/internal/query/loadgen"
)

// oracleEntry is one (model, kernel) prediction vector, precomputed so
// the verifier seat stays cheap enough to run inline with the load.
type oracleEntry struct {
	preds     []core.Prediction
	cluster   int
	minPowerW float64
}

// soakOracle is the single-threaded reference for every generation a
// soak run can be served by.
type soakOracle struct {
	quantum float64
	// preds[modelHash][kernel]
	preds map[string]map[string]oracleEntry
}

func newSoakOracle(t *testing.T, s *query.Service, models ...*core.Model) *soakOracle {
	t.Helper()
	o := &soakOracle{quantum: s.CapQuantumW(), preds: map[string]map[string]oracleEntry{}}
	for _, m := range models {
		hash, err := m.Hash()
		if err != nil {
			t.Fatal(err)
		}
		byKernel := map[string]oracleEntry{}
		for _, kernel := range s.Kernels() {
			sr, ok := s.SampleRuns(kernel)
			if !ok {
				t.Fatalf("no shard for %s", kernel)
			}
			preds, cluster, err := m.PredictAll(sr)
			if err != nil {
				t.Fatal(err)
			}
			byKernel[kernel] = oracleEntry{
				preds: preds, cluster: cluster,
				minPowerW: core.MinPredictedPowerW(preds),
			}
		}
		o.preds[hash] = byKernel
	}
	return o
}

// verify checks one response against the single-threaded reference for
// the model generation the response claims to be from.
func (o *soakOracle) verify(req query.Request, resp query.Response) error {
	byKernel, ok := o.preds[resp.ModelHash]
	if !ok {
		return fmt.Errorf("response from unknown model generation %q", resp.ModelHash)
	}
	e, ok := byKernel[req.Kernel]
	if !ok {
		return fmt.Errorf("response for unknown kernel %q", req.Kernel)
	}
	eff := query.QuantizeCapW(req.CapW, o.quantum)
	if resp.EffectiveCapW != eff {
		return fmt.Errorf("effective cap %v, oracle %v", resp.EffectiveCapW, eff)
	}
	want, err := core.SelectAmong(e.preds, e.cluster, eff, req.Z)
	if err != nil {
		return err
	}
	if resp.Selection != want {
		return fmt.Errorf("selection %+v, oracle %+v (cap %v z %v)", resp.Selection, want, eff, req.Z)
	}
	if resp.MinPowerW != e.minPowerW {
		return fmt.Errorf("min power %v, oracle %v", resp.MinPowerW, e.minPowerW)
	}
	return nil
}

// TestSoakSelectionService is the acceptance soak: a seeded closed-loop
// load (8 workers, >=10k queries) against a deliberately small service
// (6 selections in flight, half the shards slowed by an injected fault)
// with two hot reloads mid-run. Every successful response must
// match the single-threaded oracle bitwise for the generation it names;
// admission control must shed (shed counter > 0) and no request may
// outlive its deadline. Run under -race via make test-query.
func TestSoakSelectionService(t *testing.T) {
	mA, mB := testModels(t)
	requests := 30_000
	if testing.Short() {
		requests = 10_000
	}

	inj := fault.NewInjector(fault.Scenario{
		Name:        "query-slow-shard",
		Description: "half the kernels answer slowly",
		Rules: []fault.Rule{
			{Site: fault.SiteNet, Kind: fault.NetDelay, Prob: 0.5, Magnitude: 4},
		},
	}, 7)
	s := newTestService(t, mA, query.Options{
		MaxInFlight: 6, // 8 closed-loop clients, 6 slots: overload is reachable, not constant
		Faults:      inj,
	})
	o := newSoakOracle(t, s, mA, mB)
	hashA, _ := s.Generation()

	// Hot reloads at one third and two thirds of the run, triggered by
	// completion count — no wall-clock pacing.
	var flip1, flip2 atomic.Bool
	onResult := func(done int) {
		if done >= requests/3 && flip1.CompareAndSwap(false, true) {
			if _, _, err := s.Reload(mB); err != nil {
				t.Error(err)
			}
		}
		if done >= 2*requests/3 && flip2.CompareAndSwap(false, true) {
			if _, _, err := s.Reload(mA); err != nil {
				t.Error(err)
			}
		}
	}

	var mu sync.Mutex
	var mismatches []string
	verify := func(req query.Request, resp query.Response) error {
		if err := o.verify(req, resp); err != nil {
			mu.Lock()
			if len(mismatches) < 5 {
				mismatches = append(mismatches, err.Error())
			}
			mu.Unlock()
			return err
		}
		return nil
	}

	const timeout = 2 * time.Second
	before := s.Stats()
	sum, err := loadgen.Run(context.Background(), s, loadgen.Config{
		Workers:  8,
		Requests: requests,
		Seed:     42,
		Kernels:  s.Kernels(),
		CapsW:    []float64{4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40},
		Zs:       []float64{0, 1.5},
		Timeout:  timeout,
		Verify:   verify,
		OnResult: onResult,
	})
	if err != nil {
		t.Fatal(err)
	}

	writeSoakArtifact(t, sum)
	t.Logf("soak: %d requests, %d ok (%d cached), %d shed, %d deadline, %d errors, p50 %.2gs p99 %.2gs max %.2gs, generations %d",
		sum.Requests, sum.OK, sum.Cached, sum.Shed, sum.Deadline, sum.Errors,
		sum.P50Seconds, sum.P99Seconds, sum.MaxSeconds, len(sum.ByGeneration))

	if sum.Requests != requests {
		t.Fatalf("ran %d requests, want %d", sum.Requests, requests)
	}
	if sum.Mismatches != 0 {
		t.Fatalf("%d selection mismatches vs the single-threaded oracle; first: %v",
			sum.Mismatches, mismatches)
	}
	if sum.Errors != 0 {
		t.Fatalf("%d unexpected errors: %v", sum.Errors, sum.MismatchSamples)
	}
	if sum.Deadline != 0 {
		t.Fatalf("%d requests hit their %v deadline — something hung", sum.Deadline, timeout)
	}
	if sum.Shed == 0 {
		t.Fatal("admission control never shed: the soak did not exercise overload")
	}
	if sum.OK+sum.Shed != requests {
		t.Fatalf("accounting: ok %d + shed %d != %d", sum.OK, sum.Shed, requests)
	}
	if got := int(s.Stats().Shed - before.Shed); got != sum.Shed {
		t.Fatalf("service shed counter %d != loadgen shed %d", got, sum.Shed)
	}
	if len(sum.ByGeneration) < 2 {
		t.Fatalf("traffic served by %d generations, want >= 2 (hot reload never took)", len(sum.ByGeneration))
	}
	if !flip1.Load() || !flip2.Load() {
		t.Fatal("hot reloads did not both fire")
	}
	if hash, _ := s.Generation(); hash != hashA {
		t.Fatalf("final generation %s, want model A's %s", hash, hashA)
	}
	// "No request hangs past its deadline": the deadline count is zero
	// (above) and the slowest observed request stays within the deadline
	// plus generous scheduler slack.
	if sum.MaxSeconds > (timeout + 5*time.Second).Seconds() {
		t.Fatalf("slowest request took %.3fs, far past its %v deadline", sum.MaxSeconds, timeout)
	}
}

// writeSoakArtifact publishes the run summary as a JSON artifact when
// ACSEL_QUERY_SUMMARY names a path (make test-query sets it; CI uploads
// the file).
func writeSoakArtifact(t *testing.T, sum loadgen.Summary) {
	t.Helper()
	path := os.Getenv("ACSEL_QUERY_SUMMARY")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak summary written to %s", path)
}

// TestStressHotReloadRace hammers a small service from many goroutines
// while a reloader flips the model between two generations as fast as
// it can. Every response must name one of the two known generations and
// match that generation's oracle exactly — a torn read (a selection
// from one model stamped with the other's hash) fails here, and -race
// watches the pointer swap itself.
func TestStressHotReloadRace(t *testing.T) {
	mA, mB := testModels(t)
	const goroutines = 8
	s := newTestService(t, mA, query.Options{
		MaxInFlight: goroutines, // a slot per caller: every request must be served
	})
	o := newSoakOracle(t, s, mA, mB)

	queries := 400
	if testing.Short() {
		queries = 150
	}

	stop := make(chan struct{})
	before := s.Stats()
	var reloaderDone sync.WaitGroup
	reloaderDone.Add(1)
	go func() {
		defer reloaderDone.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := mA
			if i%2 == 1 {
				m = mB
			}
			if _, _, err := s.Reload(m); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	ctx := context.Background()
	universe := s.Kernels()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				req := query.Request{
					Kernel: universe[(g+i)%len(universe)],
					CapW:   4 + float64((g*queries+i)%37),
					Z:      float64(i%2) * 1.5,
				}
				resp, err := s.Select(ctx, req)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				if verr := o.verify(req, resp); verr != nil {
					t.Errorf("goroutine %d: %v", g, verr)
					if failures.Add(1) > 3 {
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reloaderDone.Wait()
	if s.Stats().Reloads == before.Reloads {
		t.Fatal("reloader never ran")
	}
}
