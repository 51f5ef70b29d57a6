// Package supervise keeps a long-running runtime service alive: a
// panic-isolating restart loop that reruns its worker with exponential
// backoff and deterministic jitter, and a circuit breaker that observes
// the hardware seams (SMU, P-state, counters). The breaker gates
// nothing: its caller feeds it outcomes (Allow, then Record) and reads
// its State to report degradation. Deadlines are the caller's, as
// context deadlines.
//
// The same design constraint as internal/fault applies everywhere:
// decisions must be deterministic. Backoff jitter is hashed from the
// worker's name and attempt ordinal (no global RNG), and the breaker
// trips and recovers on call counts rather than wall time, so a
// deterministic fault plan drives a deterministic state-machine
// trajectory that chaos tests can replay.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"
)

// WorkerFunc is one supervised unit of work. Returning nil means the
// worker finished its job and the supervisor stops; returning an error
// (or panicking) triggers a restart.
type WorkerFunc func(ctx context.Context) error

// PanicError wraps a recovered worker panic so callers can distinguish
// crashes from ordinary failures and still read the stack.
type PanicError struct {
	Value any
	Stack string
}

// Error renders the panic value; the stack is carried for logs.
func (p *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", p.Value) }

// Defaults for Options left zero.
const (
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 30 * time.Second
)

// Options configures a Supervisor.
type Options struct {
	// Name labels the worker in metrics and jitter derivation.
	Name string
	// MaxRestarts bounds consecutive restarts; 0 means unlimited.
	// When exhausted, Run returns the last worker error.
	MaxRestarts int
	// BaseBackoff is the delay before the first restart; each further
	// consecutive restart doubles it up to MaxBackoff. Deterministic
	// jitter of up to half the delay is added on top.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// OnRestart, if set, observes each restart decision (attempt
	// ordinal starting at 1, the error that caused it, the backoff
	// about to be slept). Called synchronously.
	OnRestart func(attempt int, err error, backoff time.Duration)
}

// Supervisor runs a worker until it succeeds, its context ends, or the
// restart budget is spent.
type Supervisor struct {
	opts    Options
	resetCh chan struct{}
}

// New builds a supervisor.
func New(opts Options) *Supervisor {
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = DefaultBaseBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	return &Supervisor{opts: opts, resetCh: make(chan struct{}, 1)}
}

// ResetBackoff marks the worker as having made progress: the next
// failure restarts from the base backoff again instead of continuing
// the exponential climb. Safe to call from the worker goroutine.
func (s *Supervisor) ResetBackoff() {
	select {
	case s.resetCh <- struct{}{}:
	default:
	}
}

// Run executes the worker under supervision. It returns nil when the
// worker completes, ctx.Err() when the context ends, and the last
// worker error when MaxRestarts is exhausted. Panics inside the worker
// are recovered, wrapped as *PanicError, and treated as failures.
func (s *Supervisor) Run(ctx context.Context, w WorkerFunc) error {
	attempt := 0
	for {
		err := invoke(ctx, w)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case <-s.resetCh:
			attempt = 0
		default:
		}
		attempt++
		var pe *PanicError
		if errors.As(err, &pe) {
			mPanics.With(s.opts.Name).Inc()
		}
		if s.opts.MaxRestarts > 0 && attempt > s.opts.MaxRestarts {
			return fmt.Errorf("supervise: %s exhausted %d restarts: %w", s.opts.Name, s.opts.MaxRestarts, err)
		}
		d := s.backoff(attempt)
		mRestarts.With(s.opts.Name).Inc()
		if s.opts.OnRestart != nil {
			s.opts.OnRestart(attempt, err, d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

// invoke runs the worker once with panic isolation.
func invoke(ctx context.Context, w WorkerFunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return w(ctx)
}

// backoff computes the delay before restart attempt (1-based):
// base·2^(attempt-1) capped at max, plus deterministic jitter in
// [0, d/2) hashed from the worker name and attempt — the same
// plan-identity-hashing discipline as internal/fault, so two runs of
// the same failure sequence sleep the same schedule (and concurrent
// workers with different names desynchronize their retry stampedes).
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.opts.BaseBackoff
	for i := 1; i < attempt && d < s.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.opts.MaxBackoff {
		d = s.opts.MaxBackoff
	}
	return d + jitter(s.opts.Name, attempt, d/2)
}

// jitter returns a deterministic duration in [0, span) keyed by
// (name, attempt).
func jitter(name string, attempt int, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash.Write never returns an error
	fmt.Fprintf(h, "|%d", attempt)
	return time.Duration(h.Sum64() % uint64(span))
}
