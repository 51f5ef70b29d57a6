package supervise

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"acsel/internal/fault"
)

// errRejected stands for a call the open breaker turned away.
var errRejected = errors.New("rejected by the open breaker")

// do feeds one call through b: fn runs, and its outcome is recorded,
// only when Allow admits it.
func do(b *Breaker, fn func() error) error {
	if !b.Allow() {
		return errRejected
	}
	err := fn()
	b.Record(err)
	return err
}

// trips and rejections read b's lifetime closed→open transitions and
// rejected calls from its metric families.
func trips(b *Breaker) float64 {
	return mBreakerTransitions.With(b.opts.Name, Open.String()).Value()
}

func rejections(b *Breaker) float64 { return mBreakerRejected.With(b.opts.Name).Value() }

func TestBreakerStateStrings(t *testing.T) {
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("state strings")
	}
	if BreakerState(9).String() == "" {
		t.Fatal("unknown state renders empty")
	}
}

func TestBreakerTripCooldownRecover(t *testing.T) {
	b := NewBreaker(BreakerOptions{Name: "smu-test",
		FailureThreshold: 3, OpenCalls: 2, HalfOpenSuccesses: 2})
	trips0, rejected0 := trips(b), rejections(b)
	boom := errors.New("sensor dead")
	fail := func() error { return boom }
	okFn := func() error { return nil }

	// Closed absorbs scattered failures; a success resets the streak.
	if err := do(b, fail); !errors.Is(err, boom) {
		t.Fatal("closed breaker swallowed the call error")
	}
	if err := do(b, fail); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := do(b, okFn); err != nil {
		t.Fatal(err)
	}
	if b.State() != Closed {
		t.Fatalf("state %v after interrupted failure streak, want closed", b.State())
	}

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if err := do(b, fail); !errors.Is(err, boom) {
			t.Fatal(err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state %v after trip, want open", b.State())
	}

	// Open rejects OpenCalls calls without running them, then goes
	// half-open.
	ran := false
	for i := 0; i < 2; i++ {
		if err := do(b, func() error { ran = true; return nil }); !errors.Is(err, errRejected) {
			t.Fatalf("rejected call %d: err = %v, want errRejected", i, err)
		}
	}
	if ran {
		t.Fatal("open breaker executed a call")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}

	// Two probe successes close it.
	if err := do(b, okFn); err != nil || b.State() != HalfOpen {
		t.Fatalf("first probe: err=%v state=%v", err, b.State())
	}
	if err := do(b, okFn); err != nil || b.State() != Closed {
		t.Fatalf("second probe: err=%v state=%v", err, b.State())
	}

	if n, r := trips(b)-trips0, rejections(b)-rejected0; n != 1 || r != 2 {
		t.Errorf("counts = (%v trips, %v rejected), want (1, 2)", n, r)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerOptions{Name: "pstate-test",
		FailureThreshold: 1, OpenCalls: 1, HalfOpenSuccesses: 1})
	trips0 := trips(b)
	boom := errors.New("transition failed")
	if err := do(b, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if b.State() != Open {
		t.Fatalf("state %v, want open", b.State())
	}
	if err := do(b, func() error { return nil }); !errors.Is(err, errRejected) {
		t.Fatal("cooldown call ran")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	// The probe fails: straight back to open.
	if err := do(b, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if n := trips(b) - trips0; n != 2 {
		t.Errorf("trips = %v, want 2", n)
	}
}

// chaosBreakerTrace drives a breaker with the deterministic P-state
// fault stream of a plan and returns the state observed after every
// call.
func chaosBreakerTrace(seed int64, n int) []BreakerState {
	sc, _ := fault.ScenarioByName("pstate-flaky")
	in := fault.NewInjector(sc, seed)
	b := NewBreaker(BreakerOptions{Name: "chaos",
		FailureThreshold: 2, OpenCalls: 3, HalfOpenSuccesses: 1})
	trace := make([]BreakerState, 0, n)
	for i := 0; i < n; i++ {
		_ = do(b, func() error { //lint:ignore errcheck outcome folded into the trace
			if len(in.At(fault.SitePState, fault.EventKey("seam", i), 0)) > 0 {
				return errors.New("injected")
			}
			return nil
		})
		trace = append(trace, b.State())
	}
	return trace
}

// TestBreakerChaosDrivesEveryTransition replays a fault plan through
// the breaker: the same injector-driven failure stream that exercises
// the runtime's degradation ladder must walk the breaker through
// closed→open→half-open→closed (and half-open→open), and two replays
// of the same plan must trace identical state sequences.
func TestBreakerChaosDrivesEveryTransition(t *testing.T) {
	trace := chaosBreakerTrace(11, 600)
	seen := map[BreakerState]bool{}
	reopened, closedAgain := false, false
	for i, s := range trace {
		seen[s] = true
		if i > 0 {
			if trace[i-1] == HalfOpen && s == Open {
				reopened = true
			}
			if trace[i-1] == HalfOpen && s == Closed {
				closedAgain = true
			}
		}
	}
	if !seen[Closed] || !seen[Open] || !seen[HalfOpen] {
		t.Fatalf("chaos run did not visit every state: %v", seen)
	}
	if !reopened || !closedAgain {
		t.Errorf("half-open exits not both exercised (reopen=%v close=%v)", reopened, closedAgain)
	}
	if !reflect.DeepEqual(trace, chaosBreakerTrace(11, 600)) {
		t.Error("same fault plan traced different breaker trajectories")
	}
	if reflect.DeepEqual(trace, chaosBreakerTrace(12, 600)) {
		t.Error("different seed traced an identical trajectory")
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b := NewBreaker(BreakerOptions{Name: "racy"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = do(b, func() error { //lint:ignore errcheck smoke test
					if (g+i)%3 == 0 {
						return errors.New("sporadic")
					}
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	// The breaker must land in a legal state with consistent counters.
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("illegal state %v", s)
	}
}
