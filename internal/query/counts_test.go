package query_test

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"acsel/internal/fault"
	"acsel/internal/metrics"
	"acsel/internal/query"
)

// queryCounts reads every acsel_query_* series of the process registry:
// a counter by its value, a histogram by its observation count, each
// outcome of acsel_query_requests_total under "requests{outcome}".
func queryCounts(t *testing.T) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, f := range metrics.Default.TakeSnapshot().Families {
		name, ok := strings.CutPrefix(f.Name, "acsel_query_")
		if !ok {
			continue
		}
		for _, m := range f.Metrics {
			key := name
			if o, ok := m.Labels["outcome"]; ok {
				key = "requests{" + o + "}"
			}
			switch {
			case m.Value != nil:
				out[key] = *m.Value
			case m.Count != nil:
				out[key] = float64(*m.Count)
			}
		}
	}
	return out
}

// TestOutcomeCountsConsistent drives one service through every outcome
// a request can have and checks, for each, the change of every
// acsel_query_* series and of Stats. A series absent from a step's
// expectations must not move. The hit, shed and computed-selection
// families must keep their values whether they are counted or derived
// from the outcome counters, and the compute timer must sample exactly
// the selections admitted while the served count is a multiple of
// query.SelectSampleEvery.
func TestOutcomeCountsConsistent(t *testing.T) {
	mA, _ := testModels(t)
	broken := *mA
	broken.Clusters = nil // hashes fine, fails every PredictAll

	// Every computation is slowed by maxSlowShardDelay (5 ms), which
	// is where a computation notices its deadline.
	inj := fault.NewInjector(fault.Scenario{
		Name:  "query-counts",
		Rules: []fault.Rule{{Site: fault.SiteNet, Kind: fault.NetDelay, Prob: 1, Magnitude: 50}},
	}, 1)
	var g atomic.Pointer[gate]
	open := newGate()
	close(open.release)
	g.Store(open)
	opts := query.Options{MaxInFlight: 1, Faults: inj}
	opts.SetComputeGate(func() { g.Load().hold() })
	s := newTestService(t, mA, opts)
	ctx := context.Background()
	k0, k1 := s.Kernels()[0], s.Kernels()[1]

	sel := func(ctx context.Context, req query.Request, want error) {
		t.Helper()
		if _, err := s.Select(ctx, req); !errors.Is(err, want) {
			t.Fatalf("select %+v: %v, want %v", req, err, want)
		}
	}
	// The served count is process-wide: bring it to a multiple of the
	// sampling period, so the first step is timed and the second not.
	for n := uint64(s.Stats().Served); n%query.SelectSampleEvery != 0; n++ {
		sel(ctx, query.Request{Kernel: k0, CapW: 19}, nil)
	}

	steps := []struct {
		name string
		do   func()
		// computes marks a step in which one selection is computed:
		// it moves the computed family and, when the served count is
		// a multiple of the sampling period, the compute timer.
		computes bool
		want     map[string]float64
		stats    query.Stats
	}{
		{
			name:     "select, timed",
			do:       func() { sel(ctx, query.Request{Kernel: k0, CapW: 20}, nil) },
			computes: true,
			want:     map[string]float64{"requests{served}": 1},
			stats:    query.Stats{Served: 1},
		},
		{
			name:     "the same select again, computed again, untimed",
			do:       func() { sel(ctx, query.Request{Kernel: k0, CapW: 20}, nil) },
			computes: true,
			want:     map[string]float64{"requests{served}": 1},
			stats:    query.Stats{Served: 1},
		},
		{
			name: "invalid request",
			do:   func() { sel(ctx, query.Request{Kernel: k0, CapW: 20, Z: -1}, query.ErrBadRequest) },
			want: map[string]float64{"requests{error}": 1},
		},
		{
			name: "unknown kernel",
			do:   func() { sel(ctx, query.Request{Kernel: "No/Such/Kernel", CapW: 20}, query.ErrUnknownKernel) },
			want: map[string]float64{"requests{error}": 1},
		},
		{
			name: "shed while the only slot computes",
			do: func() {
				held := newGate()
				g.Store(held)
				errs := fillInFlight(s, held, 1) // k0 at 10 W
				sel(ctx, query.Request{Kernel: k1, CapW: 20}, query.ErrOverloaded)
				g.Store(open)
				close(held.release)
				if err := <-errs; err != nil {
					t.Fatalf("held selection: %v", err)
				}
			},
			computes: true,
			want: map[string]float64{
				"cache_misses_total": 1, "requests{shed}": 1, "shed_total": 1,
				"requests{served}": 1,
			},
			stats: query.Stats{Served: 1, Shed: 1},
		},
		{
			name: "deadline",
			do: func() {
				// Already expired: the slow-shard delay finds ctx done
				// long before its 5 ms timer fires.
				dctx, cancel := context.WithDeadline(ctx, time.Now())
				defer cancel()
				sel(dctx, query.Request{Kernel: k1, CapW: 21}, context.DeadlineExceeded)
			},
			computes: true,
			want:     map[string]float64{"requests{deadline}": 1},
		},
		{
			name: "reload to a model that cannot predict",
			do: func() {
				if _, _, err := s.Reload(&broken); err != nil {
					t.Fatal(err)
				}
			},
			want:  map[string]float64{"model_reloads_total": 1},
			stats: query.Stats{Reloads: 1},
		},
		{
			name: "compute error",
			do: func() {
				if _, err := s.Select(ctx, query.Request{Kernel: k1, CapW: 22}); err == nil {
					t.Fatal("select under a model that cannot predict succeeded")
				}
			},
			computes: true,
			want:     map[string]float64{"requests{error}": 1},
		},
		{
			name: "reload back",
			do: func() {
				if _, _, err := s.Reload(mA); err != nil {
					t.Fatal(err)
				}
			},
			want:  map[string]float64{"model_reloads_total": 1},
			stats: query.Stats{Reloads: 1},
		},
		{
			name: "closed",
			do: func() {
				s.Close()
				sel(ctx, query.Request{Kernel: k0, CapW: 20}, query.ErrClosed)
			},
			want: map[string]float64{"requests{error}": 1},
		},
	}
	for i, st := range steps {
		before, statsBefore := queryCounts(t), s.Stats()
		want := map[string]float64{}
		for k, v := range st.want {
			want[k] = v
		}
		if st.computes {
			want["cache_misses_total"]++
			if uint64(before["requests{served}"])%query.SelectSampleEvery == 0 {
				want["select_seconds"]++
			}
		}
		if i < 2 && want["select_seconds"] != float64(1-i) {
			t.Fatalf("%s: served count %v before it; the alignment above failed", st.name, before["requests{served}"])
		}
		st.do()
		after, statsAfter := queryCounts(t), s.Stats()
		for name := range want {
			if _, ok := after[name]; !ok {
				t.Errorf("%s: series %s not exported", st.name, name)
			}
		}
		names := make([]string, 0, len(after))
		for name := range after {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got, want := after[name]-before[name], want[name]; got != want {
				t.Errorf("%s: %s moved by %v, want %v", st.name, name, got, want)
			}
		}
		delta := query.Stats{
			Served:  statsAfter.Served - statsBefore.Served,
			Cached:  statsAfter.Cached - statsBefore.Cached,
			Shed:    statsAfter.Shed - statsBefore.Shed,
			Reloads: statsAfter.Reloads - statsBefore.Reloads,
		}
		if delta != st.stats {
			t.Errorf("%s: Stats moved by %+v, want %+v", st.name, delta, st.stats)
		}
	}
}

// TestAdmissionNeverExceedsMaxInFlight: however many selections
// arrive at once, no more than MaxInFlight compute together, and every
// request is either served or shed. The first round holds the admitted
// requests until every other one has been shed, so exactly MaxInFlight
// are served; the later rounds race freely.
func TestAdmissionNeverExceedsMaxInFlight(t *testing.T) {
	mA, _ := testModels(t)
	const maxInFlight, requests, rounds = 3, 32, 20
	var inGate, peak atomic.Int64
	var hold atomic.Pointer[chan struct{}]
	opts := query.Options{MaxInFlight: maxInFlight}
	opts.SetComputeGate(func() {
		n := inGate.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if h := hold.Load(); h != nil {
			<-*h
		} else {
			runtime.Gosched() // let other requests overlap this one
		}
		inGate.Add(-1)
	})
	s := newTestService(t, mA, opts)
	kernels := s.Kernels()

	// start sends one selection per request of round i from its own
	// goroutine; the errors arrive on the returned channel.
	start := func(i int) <-chan error {
		errs := make(chan error, requests)
		for j := 0; j < requests; j++ {
			req := query.Request{Kernel: kernels[j%len(kernels)], CapW: 10 + float64(i*requests+j)*s.CapQuantumW()}
			go func() {
				_, err := s.Select(context.Background(), req)
				errs <- err
			}()
		}
		return errs
	}

	release := make(chan struct{})
	hold.Store(&release)
	t.Cleanup(func() {
		if hold.Swap(nil) != nil {
			close(release)
		}
	})
	errs := start(0)
	for shed := 0; shed < requests-maxInFlight; shed++ {
		select {
		case err := <-errs:
			if !errors.Is(err, query.ErrOverloaded) {
				t.Fatalf("held round: %v, want ErrOverloaded while %d requests hold every slot", err, maxInFlight)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("held round: %d of %d requests shed, want every request past the first %d",
				shed, requests, maxInFlight)
		}
	}
	if hold.Swap(nil) != nil {
		close(release)
	}
	for i := 0; i < maxInFlight; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("held round: admitted request failed: %v", err)
		}
	}

	for i := 1; i < rounds; i++ {
		before := s.Stats()
		errs := start(i)
		var served, shed uint64
		for j := 0; j < requests; j++ {
			switch err := <-errs; {
			case err == nil:
				served++
			case errors.Is(err, query.ErrOverloaded):
				shed++
			default:
				t.Fatalf("round %d: %v", i, err)
			}
		}
		after := s.Stats()
		if got := after.Served - before.Served; got != served {
			t.Errorf("round %d: Stats served moved by %d, want %d", i, got, served)
		}
		if got := after.Shed - before.Shed; got != shed {
			t.Errorf("round %d: Stats shed moved by %d, want %d", i, got, shed)
		}
	}
	if got := peak.Load(); got != maxInFlight {
		t.Fatalf("peak concurrent computations = %d, want %d (MaxInFlight)", got, maxInFlight)
	}
}

// TestPanicGivesBackInFlightSlot: a selection that panics mid-compute
// still returns its in-flight slot, so on a one-slot service the next
// request is served rather than shed.
func TestPanicGivesBackInFlightSlot(t *testing.T) {
	mA, _ := testModels(t)
	var panicked atomic.Bool
	opts := query.Options{MaxInFlight: 1}
	opts.SetComputeGate(func() {
		if panicked.CompareAndSwap(false, true) {
			panic("injected compute panic")
		}
	})
	s := newTestService(t, mA, opts)
	req := query.Request{Kernel: s.Kernels()[0], CapW: 21}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the gate's panic did not reach the caller")
			}
		}()
		_, _ = s.Select(context.Background(), req)
	}()
	if _, err := s.Select(context.Background(), req); err != nil {
		t.Fatalf("after a panicked selection: %v", err)
	}
}
