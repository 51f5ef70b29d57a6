package supervise

import (
	"fmt"
	"sync"
)

// BreakerState is a circuit breaker's position in the
// closed→open→half-open state machine.
type BreakerState int

const (
	// Closed passes every call through; consecutive failures count
	// toward tripping.
	Closed BreakerState = iota
	// Open rejects calls (Allow reports false); after OpenCalls
	// rejections the breaker moves to half-open.
	Open
	// HalfOpen admits probe calls; sustained success closes the
	// breaker, any failure reopens it.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerOptions tunes a breaker. The cooldown is counted in rejected
// calls, not wall time: the runtime service is driven by epochs, so
// "try again after N skipped operations" is both deterministic (chaos
// replays hit identical transitions) and naturally paced to load.
type BreakerOptions struct {
	// Name labels the breaker in metrics.
	Name string
	// FailureThreshold is how many consecutive failures trip a closed
	// breaker (default 5).
	FailureThreshold int
	// OpenCalls is how many calls the open breaker rejects before
	// moving to half-open (default 8).
	OpenCalls int
	// HalfOpenSuccesses is how many consecutive probe successes close
	// a half-open breaker (default 2).
	HalfOpenSuccesses int
}

const (
	defaultFailureThreshold  = 5
	defaultOpenCalls         = 8
	defaultHalfOpenSuccesses = 2
)

// Breaker is a deterministic, call-count-driven circuit breaker. It is
// safe for concurrent use.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive failures while closed
	rejected int // calls rejected while open
	probeOK  int // consecutive successes while half-open
}

// NewBreaker builds a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = defaultFailureThreshold
	}
	if opts.OpenCalls <= 0 {
		opts.OpenCalls = defaultOpenCalls
	}
	if opts.HalfOpenSuccesses <= 0 {
		opts.HalfOpenSuccesses = defaultHalfOpenSuccesses
	}
	if opts.Name == "" {
		opts.Name = "breaker"
	}
	b := &Breaker{opts: opts}
	mBreakerState.With(opts.Name).Set(float64(Closed))
	return b
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transition moves the state machine and records it. Callers hold b.mu.
func (b *Breaker) transition(to BreakerState) {
	b.state = to
	b.failures, b.rejected, b.probeOK = 0, 0, 0
	mBreakerState.With(b.opts.Name).Set(float64(to))
	mBreakerTransitions.With(b.opts.Name, to.String()).Inc()
}

// Allow reports whether a call may proceed now. A rejected call counts
// toward the open breaker's cooldown; once OpenCalls rejections have
// accumulated the breaker turns half-open and the next Allow admits a
// probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed, HalfOpen:
		return true
	default: // Open
		b.rejected++
		mBreakerRejected.With(b.opts.Name).Inc()
		if b.rejected >= b.opts.OpenCalls {
			b.transition(HalfOpen)
		}
		return false
	}
}

// Record feeds one call outcome into the state machine. err == nil is
// a success.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.opts.FailureThreshold {
			b.transition(Open)
		}
	case HalfOpen:
		if err != nil {
			// The probe failed: the seam is still broken.
			b.transition(Open)
			return
		}
		b.probeOK++
		if b.probeOK >= b.opts.HalfOpenSuccesses {
			b.transition(Closed)
		}
	case Open:
		// An outcome recorded while open (e.g. an in-flight call that
		// straddled the trip) neither helps nor hurts.
	}
}
