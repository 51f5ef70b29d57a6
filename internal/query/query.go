// Package query is the high-throughput selection service: it answers
// SelectUnderCap-style queries — (kernel, cap watts, z) → predicted-best
// configuration — from one or more trained core.Models at production
// call rates. The paper's runtime makes this decision once per kernel
// invocation on one node; here the same decision is served concurrently
// to many callers, which changes the engineering problem from "walk the
// frontier" to "read no more of it than the answer needs":
//
//   - Per-kernel shards precompute the online stage's sample runs once
//     and, per model generation, the model's full prediction vector
//     compiled into a core.Selector: the vector's candidates in
//     preference order. A query scans that order to the first
//     configuration under the cap, usually after one or two, and gets
//     core.SelectAmong's answer — the rule behind core.SelectUnderCap —
//     bit for bit, so every path is bitwise-identical to the
//     single-threaded call.
//   - Every selection is computed on the caller's goroutine: it costs
//     one memoized-selector lookup plus one selector scan, less than a
//     hand-off to a worker goroutine would and less than a cache lookup
//     did, so the service owns no goroutines and caches no answers.
//     Before computing, the request takes one of Options.MaxInFlight
//     slots without blocking — one atomic add to an in-flight count;
//     when every slot is taken it is shed with a typed ErrOverloaded
//     (the HTTP layer's 429) instead of waiting without bound, and shed
//     is a first-class metric.
//   - A hot model reload is an atomic generation pointer swap. Each
//     shard compiles a generation's predictions on its first use under
//     it, keyed by the model's SHA-256 content hash (core.Model.Hash),
//     so reloading byte-identical bytes recompiles nothing.
//
// Deliberate consequence of the design: a response is computed entirely
// against the generation captured at admission, and carries that
// generation's hash, so concurrent hot reloads can never produce a torn
// read — the soak and stress tests assert every response equals the
// single-threaded oracle for the model its hash names.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
)

// Typed error taxonomy. The HTTP layer maps these to status codes and
// back, so errors.Is works identically in-process and across -remote.
var (
	// ErrBadRequest marks a malformed query: empty kernel, non-finite
	// cap, negative or non-finite z, or an undecodable body.
	ErrBadRequest = errors.New("query: bad request")
	// ErrUnknownKernel marks a kernel ID outside the service universe.
	ErrUnknownKernel = errors.New("query: unknown kernel")
	// ErrOverloaded is the admission-control shed: every in-flight slot
	// was taken. Clients should back off and retry (HTTP 429).
	ErrOverloaded = errors.New("query: overloaded, request shed")
	// ErrClosed is returned once the service has shut down.
	ErrClosed = errors.New("query: service closed")
	// ErrBatchTooLarge marks a batch beyond Options.MaxBatch.
	ErrBatchTooLarge = errors.New("query: batch too large")
)

// DefaultCapQuantumW is the cap quantization step: incoming caps are
// floored to a multiple of it at admission, so requests within one
// quantum get one answer. 1/32 W is far below any
// power-measurement resolution in the paper's testbed, and the
// response's EffectiveCapW always reports the cap actually used.
const DefaultCapQuantumW = 1.0 / 32

// Slow-shard fault pacing: a fault.NetDelay resolved at the SiteNet
// seam stretches one shard's computation by Magnitude × slowShardUnit,
// bounded by maxSlowShardDelay so chaos plans cannot hold an in-flight
// slot indefinitely.
const (
	slowShardUnit     = 100 * time.Microsecond
	maxSlowShardDelay = 5 * time.Millisecond
)

// Options configures a Service. The zero value selects sane defaults.
type Options struct {
	// MaxInFlight bounds the selections computed at once; a request
	// that finds every slot taken is shed with ErrOverloaded (default:
	// 256).
	MaxInFlight int
	// MaxBatch bounds SelectBatch and the /v1/select/batch body
	// (default: 256).
	MaxBatch int
	// Kernels is the service universe (default: every kernel of
	// kernels.Combos()). Sample runs are precomputed per kernel at
	// construction, so a narrow universe starts faster.
	Kernels []kernels.Kernel
	// Faults, when non-nil, is consulted at the fault.SiteNet seam once
	// per computed selection (key "query/<kernelID>"): a NetDelay rule
	// makes the kernel's shard deterministically slow, which is how the
	// stress tests widen race windows and force admission control on.
	Faults *fault.Injector

	// computeGate, when non-nil, is called after a request takes its
	// in-flight slot and before it computes. Tests use it to hold
	// selections mid-flight and fill every slot deterministically.
	computeGate func()
}

// Request is one selection query.
type Request struct {
	Kernel string  `json:"kernel"`
	CapW   float64 `json:"cap_w"`
	Z      float64 `json:"z,omitempty"`
}

// Validate applies the request invariants shared by every entry path.
func (r Request) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("%w: missing kernel", ErrBadRequest)
	}
	if math.IsNaN(r.CapW) || math.IsInf(r.CapW, 0) {
		return fmt.Errorf("%w: cap_w must be finite, got %v", ErrBadRequest, r.CapW)
	}
	if math.IsNaN(r.Z) || math.IsInf(r.Z, 0) || r.Z < 0 {
		return fmt.Errorf("%w: z must be finite and non-negative, got %v", ErrBadRequest, r.Z)
	}
	return nil
}

// Response is one answered query. Selection is bitwise-identical to
// core.SelectUnderCap(sr, EffectiveCapW) (variance-aware for Z > 0) on
// the model generation named by ModelHash.
type Response struct {
	Kernel        string         `json:"kernel"`
	CapW          float64        `json:"cap_w"`
	EffectiveCapW float64        `json:"effective_cap_w"`
	Z             float64        `json:"z,omitempty"`
	Selection     core.Selection `json:"selection"`
	// MinPowerW is the generation's minimum feasible predicted power
	// for this kernel — the floor ErrCapInfeasible is measured against.
	MinPowerW float64 `json:"min_power_w"`
	ModelHash string  `json:"model_hash"`
	ModelSeq  uint64  `json:"model_seq"`
	// Cached is always false: every selection is computed. It stays
	// for the wire format's readers.
	Cached bool `json:"cached,omitempty"`
}

// Stats is a point-in-time snapshot of the query counters, read from
// the metric families without registry scraping. The families are
// process-wide, so the counts cover every Service in the process.
type Stats struct {
	Served uint64 `json:"served"`
	// Cached always reads 0: no request is served from a cache. It
	// stays for the snapshot's readers.
	Cached  uint64 `json:"cached"`
	Shed    uint64 `json:"shed"`
	Reloads uint64 `json:"reloads"`
}

// generation is one immutable loaded model: swap-in is an atomic
// pointer store, and every request pins the generation it was admitted
// under for its whole life.
type generation struct {
	model *core.Model
	hash  string
	seq   uint64
}

// shardPreds is one shard's prediction state for one generation: its
// prediction vector, compiled for selection.
type shardPreds struct {
	genHash   string
	sel       *core.Selector
	minPowerW float64
}

// shard is one kernel's slot: its precomputed sample runs plus the
// latest generation's prediction vector.
type shard struct {
	kernel string
	sr     core.SampleRuns

	mu    sync.Mutex // serializes recomputation, not reads
	preds atomic.Pointer[shardPreds]
}

// predictions returns the shard's prediction state for generation g,
// computing and caching it on first use. Concurrent callers for the
// same generation compute once; callers pinned to different
// generations each get a vector consistent with their own generation.
// This is the production half of the test oracle: the soak tests
// assert every served Response equals core.SelectAmong over the vector
// compiled here, which is only sound if the whole compute path is
// deterministic — hence the directive.
//
//lint:deterministic
func (sh *shard) predictions(g *generation) (*shardPreds, error) {
	if p := sh.preds.Load(); p != nil && p.genHash == g.hash {
		return p, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.preds.Load(); p != nil && p.genHash == g.hash {
		return p, nil
	}
	preds, cluster, err := g.model.PredictAll(sh.sr)
	if err != nil {
		return nil, err
	}
	p := &shardPreds{
		genHash:   g.hash,
		sel:       core.NewSelector(preds, cluster),
		minPowerW: core.MinPredictedPowerW(preds),
	}
	sh.preds.Store(p)
	return p, nil
}

// Service answers selection queries. Construct with NewService; all
// methods are safe for concurrent use.
type Service struct {
	opts   Options
	shards map[string]*shard

	gen      atomic.Pointer[generation]
	reloadMu sync.Mutex
	closed   atomic.Bool

	// inFlight counts the requests admitted to compute; it never stays
	// above Options.MaxInFlight. Every request writes it twice and
	// reads the fields above, so it has a cache line of its own.
	_        [cacheLineBytes]byte
	inFlight atomic.Int64
	_        [cacheLineBytes - 8]byte
}

// cacheLineBytes is the cache-line size padding assumes.
const cacheLineBytes = 64

// NewService builds the service around an initial model: it precomputes
// every universe kernel's sample runs (the online stage's two
// iterations, deterministic per kernel identity).
func NewService(m *core.Model, opts Options) (*Service, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", core.ErrNoModel)
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 256
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	universe := opts.Kernels
	if len(universe) == 0 {
		for _, c := range kernels.Combos() {
			universe = append(universe, c.Kernels...)
		}
	}
	hash, err := m.Hash()
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts:   opts,
		shards: make(map[string]*shard, len(universe)),
	}
	p := profiler.New()
	for _, k := range universe {
		cpu, err := p.RunConfig(k, apu.SampleConfigCPU(), 0)
		if err != nil {
			return nil, fmt.Errorf("query: sampling %s on CPU: %w", k.ID(), err)
		}
		gpu, err := p.RunConfig(k, apu.SampleConfigGPU(), 1)
		if err != nil {
			return nil, fmt.Errorf("query: sampling %s on GPU: %w", k.ID(), err)
		}
		s.shards[k.ID()] = &shard{kernel: k.ID(), sr: core.SampleRuns{CPU: cpu, GPU: gpu}}
	}
	s.gen.Store(&generation{model: m, hash: hash, seq: 1})
	return s, nil
}

// QuantizeCapW floors capW to a multiple of quantum (no-op for
// quantum <= 0). The service's selection semantics are defined over the
// quantized cap; responses echo it as EffectiveCapW. A finite capW
// always yields a finite result.
func QuantizeCapW(capW, quantum float64) float64 {
	if quantum <= 0 {
		return capW
	}
	if q := math.Floor(capW/quantum) * quantum; !math.IsInf(q, 0) {
		return q
	}
	// capW/quantum overflowed, or the product rounded past
	// MaxFloat64: at that magnitude the spacing between floats
	// exceeds any practical quantum, so the cap is returned as is.
	return capW
}

// CapQuantumW reports the service's quantization step,
// DefaultCapQuantumW.
func (s *Service) CapQuantumW() float64 { return DefaultCapQuantumW }

// Generation reports the live model's content hash and swap sequence.
func (s *Service) Generation() (hash string, seq uint64) {
	g := s.gen.Load()
	return g.hash, g.seq
}

// Kernels lists the service universe in sorted order.
func (s *Service) Kernels() []string {
	out := make([]string, 0, len(s.shards))
	for id := range s.shards {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SampleRuns exposes one kernel's precomputed sample runs, so callers
// (oracles, tests) can reproduce the service's selections through
// core.Model directly.
func (s *Service) SampleRuns(kernel string) (core.SampleRuns, bool) {
	sh, ok := s.shards[kernel]
	if !ok {
		return core.SampleRuns{}, false
	}
	return sh.sr, true
}

// Stats snapshots the query counters. They are process-wide: every
// Service in the process counts into the same metric families, so
// compare two snapshots to count one service's traffic.
func (s *Service) Stats() Stats {
	return Stats{
		Served:  uint64(outcomeServed.Value()),
		Cached:  uint64(outcomeCached.Value()),
		Shed:    uint64(outcomeShed.Value()),
		Reloads: uint64(mReloads.Value()),
	}
}

// Reload swaps in a new model generation atomically. In-flight requests
// admitted under the previous generation complete against it and report
// its hash; requests admitted after the swap see the new generation.
// Reloading byte-identical model bytes advances the sequence but keeps
// the hash, so every shard keeps its compiled predictions — content
// addressing, not generation counting, decides validity.
func (s *Service) Reload(m *core.Model) (hash string, seq uint64, err error) {
	if m == nil {
		return "", 0, fmt.Errorf("%w: nil model", core.ErrNoModel)
	}
	hash, err = m.Hash()
	if err != nil {
		return "", 0, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.gen.Load()
	g := &generation{model: m, hash: hash, seq: old.seq + 1}
	s.gen.Store(g)
	mReloads.Inc()
	return g.hash, g.seq, nil
}

// Close stops accepting requests; selections already admitted finish
// on their callers' goroutines. Idempotent.
func (s *Service) Close() { s.closed.Store(true) }

// selectSampleEvery is the timer's sampling period: a selection is
// timed into acsel_query_select_seconds when the served count it reads
// once admitted is a multiple of it. Timing every selection cost two
// monotonic clock reads per request.
const selectSampleEvery = 64

// Select answers one query: it takes an in-flight slot or, when none is
// free, returns ErrOverloaded immediately; it then computes on the
// caller's goroutine and returns ctx's error if the deadline expires
// first. Each request increments one outcome counter; an error after
// admission also counts itself for the computed-selection family.
func (s *Service) Select(ctx context.Context, req Request) (Response, error) {
	if err := req.Validate(); err != nil {
		outcomeError.Inc()
		return Response{}, err
	}
	sh, ok := s.shards[req.Kernel]
	if !ok {
		outcomeError.Inc()
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownKernel, req.Kernel)
	}
	if s.closed.Load() {
		outcomeError.Inc()
		return Response{}, ErrClosed
	}

	gen := s.gen.Load()
	eff := QuantizeCapW(req.CapW, DefaultCapQuantumW)
	if s.inFlight.Add(1) > int64(s.opts.MaxInFlight) {
		s.inFlight.Add(-1)
		outcomeShed.Inc()
		return Response{}, fmt.Errorf("%w: %d selections in flight", ErrOverloaded, s.opts.MaxInFlight)
	}
	// The slot goes back on every exit, a panic included: a leaked slot
	// would shed every later request once MaxInFlight of them leak.
	defer s.inFlight.Add(-1)
	if s.opts.computeGate != nil {
		s.opts.computeGate()
	}
	var stop func()
	if uint64(outcomeServed.Value())%selectSampleEvery == 0 {
		stop = mSelectSeconds.Time()
	}
	sp, sel, err := s.compute(ctx, gen, sh, eff, req.Z)
	if stop != nil {
		stop()
	}
	switch {
	case err == nil:
		outcomeServed.Inc()
		return Response{
			Kernel:        sh.kernel,
			CapW:          req.CapW,
			EffectiveCapW: eff,
			Z:             req.Z,
			Selection:     sel,
			MinPowerW:     sp.minPowerW,
			ModelHash:     gen.hash,
			ModelSeq:      gen.seq,
		}, nil
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		outcomeDeadline.Inc()
	default:
		outcomeError.Inc()
		computeErrors.Add(1)
	}
	return Response{}, err
}

// SelectBatch answers a batch item by item, in order. Results and
// errors are parallel to reqs; the overall error is non-nil only when
// the batch itself is rejected (too large).
func (s *Service) SelectBatch(ctx context.Context, reqs []Request) ([]Response, []error, error) {
	if len(reqs) > s.opts.MaxBatch {
		return nil, nil, fmt.Errorf("%w: %d requests (max %d)", ErrBatchTooLarge, len(reqs), s.opts.MaxBatch)
	}
	resps := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		resps[i], errs[i] = s.Select(ctx, req)
	}
	return resps, errs, nil
}

// compute selects for capW and z on shard sh under generation gen. The
// caller holds an in-flight slot.
func (s *Service) compute(ctx context.Context, gen *generation, sh *shard, capW, z float64) (*shardPreds, core.Selection, error) {
	sp, err := sh.predictions(gen)
	if err != nil {
		return nil, core.Selection{}, err
	}
	if err := s.slowShard(ctx, sh.kernel); err != nil {
		return nil, core.Selection{}, err
	}
	sel, err := sp.sel.Select(capW, z)
	return sp, sel, err
}

// slowShard applies the deterministic slow-shard fault: a NetDelay rule
// at the SiteNet seam, keyed only by the kernel, makes that kernel's
// computations uniformly slow for the life of the plan. The delay ends
// early with ctx's error, so a slowed request never outlives its
// deadline.
func (s *Service) slowShard(ctx context.Context, kernel string) error {
	if !s.opts.Faults.Active(fault.SiteNet) {
		return nil
	}
	for _, f := range s.opts.Faults.At(fault.SiteNet, "query/"+kernel, 0) {
		if f.Kind == fault.NetDelay && f.Magnitude > 0 {
			d := time.Duration(f.Magnitude * float64(slowShardUnit))
			if d > maxSlowShardDelay {
				d = maxSlowShardDelay
			}
			// A deadline that falls inside the delay fails the request:
			// wait for the context alone, because the delay's timer can
			// fire before the context's own timer has cancelled it.
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
				<-ctx.Done()
				return ctx.Err()
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
				// Both may be ready after a long descheduling, and
				// select picks either: the deadline still wins.
				if err := ctx.Err(); err != nil {
					return err
				}
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return nil
}
