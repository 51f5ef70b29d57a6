package supervise

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestWorkerCompletionStopsSupervision(t *testing.T) {
	s := New(Options{Name: "done"})
	calls := 0
	err := s.Run(context.Background(), func(context.Context) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestPanicIsolatedAndRestarted(t *testing.T) {
	s := New(Options{Name: "panicky", BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	var restartErrs []error
	s.opts.OnRestart = func(_ int, err error, _ time.Duration) { restartErrs = append(restartErrs, err) }
	calls := 0
	err := s.Run(context.Background(), func(context.Context) error {
		calls++
		if calls <= 2 {
			panic("seam exploded")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("supervised worker failed: %v", err)
	}
	if calls != 3 || len(restartErrs) != 2 {
		t.Fatalf("calls=%d restarts=%d", calls, len(restartErrs))
	}
	var pe *PanicError
	if !errors.As(restartErrs[0], &pe) {
		t.Fatalf("restart error %T is not a PanicError", restartErrs[0])
	}
	if pe.Stack == "" || pe.Error() == "" {
		t.Error("panic error lost its stack or message")
	}
}

func TestMaxRestartsExhausted(t *testing.T) {
	boom := errors.New("boom")
	s := New(Options{Name: "hopeless", MaxRestarts: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	calls := 0
	err := s.Run(context.Background(), func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Budget of 3 restarts = 4 invocations (initial + 3 retries).
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
}

func TestContextCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(Options{Name: "cancelled", BaseBackoff: time.Hour, MaxBackoff: time.Hour})
	err := s.Run(ctx, func(context.Context) error {
		cancel() // fail AND end the context: Run must not sleep an hour
		return errors.New("fail")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBackoffDeterministicExponentialCapped(t *testing.T) {
	const base, max = time.Millisecond, 4 * time.Millisecond
	seq := func(name string) []time.Duration {
		s := New(Options{Name: name, BaseBackoff: base, MaxBackoff: max})
		var out []time.Duration
		for attempt := 1; attempt <= 5; attempt++ {
			out = append(out, s.backoff(attempt))
		}
		return out
	}
	a, b := seq("svc"), seq("svc")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: backoff nondeterministic (%v vs %v)", i+1, a[i], b[i])
		}
	}
	// Envelope: base·2^(n-1) capped at max, jitter < d/2.
	want := []time.Duration{base, 2 * base, max, max, max}
	for i, d := range a {
		if d < want[i] || d >= want[i]+want[i]/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i+1, d, want[i], want[i]+want[i]/2)
		}
	}
	c := seq("other-svc")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("two worker names share an identical jitter schedule")
	}
}

func TestResetBackoffRestartsTheClimb(t *testing.T) {
	s := New(Options{Name: "resetting", BaseBackoff: time.Millisecond, MaxBackoff: 64 * time.Millisecond})
	var attempts []int
	s.opts.OnRestart = func(attempt int, _ error, _ time.Duration) { attempts = append(attempts, attempt) }
	calls := 0
	err := s.Run(context.Background(), func(context.Context) error {
		calls++
		switch {
		case calls < 3:
			return errors.New("early failure")
		case calls == 3:
			s.ResetBackoff() // progress was made before this failure
			return errors.New("late failure")
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attempts climb 1,2 then reset back to 1 for the third restart.
	want := []int{1, 2, 1}
	if len(attempts) != len(want) {
		t.Fatalf("attempts = %v, want %v", attempts, want)
	}
	for i := range want {
		if attempts[i] != want[i] {
			t.Fatalf("attempts = %v, want %v", attempts, want)
		}
	}
}
