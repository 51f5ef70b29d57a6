// Package query is the high-throughput selection service: it answers
// SelectUnderCap-style queries — (kernel, cap watts, z) → predicted-best
// configuration — from one or more trained core.Models at production
// call rates. The paper's runtime makes this decision once per kernel
// invocation on one node; here the same decision is served concurrently
// to many callers, which changes the engineering problem from "walk the
// frontier" to "never walk it twice for the same question":
//
//   - Per-kernel shards precompute the online stage's sample runs once
//     and cache the model's full prediction vector per model
//     generation, so a query is a cap sweep over cached predictions —
//     core.SelectAmong, the exact loop behind core.SelectUnderCap, so
//     every path is bitwise-identical to the single-threaded call.
//   - A cache miss is computed on the caller's goroutine: it costs one
//     memoized-prediction lookup plus one SelectAmong scan, less than a
//     hand-off to a worker goroutine would, so the service owns no
//     goroutines. Before computing, the request takes one of
//     Options.MaxInFlight slots without blocking; when every slot is
//     taken it is shed with a typed ErrOverloaded (the HTTP layer's
//     429) instead of waiting without bound, and shed is a first-class
//     metric.
//   - Completed selections land in an LRU keyed by the model's SHA-256
//     content hash (the same content-addressing scheme as
//     core.TrainCached), so a hot model reload — an atomic generation
//     pointer swap — implicitly invalidates every stale entry; the
//     purge merely reclaims memory early.
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
	"strconv"
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
// quantum share cache entries. 1/32 W is far below any
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
	// MaxInFlight bounds the selections computed at once; a cache miss
	// that finds every slot taken is shed with ErrOverloaded (default:
	// 256).
	MaxInFlight int
	// CacheSize is the LRU capacity in selections (default: 4096;
	// negative disables caching).
	CacheSize int
	// CapQuantumW is the cap quantization step in watts (default:
	// DefaultCapQuantumW; negative disables quantization).
	CapQuantumW float64
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
	// Now is the clock (time.Now if nil); tests pin it.
	Now func() time.Time

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
	Cached    bool    `json:"cached,omitempty"`
}

// Stats is a point-in-time snapshot of the service's own counters
// (mirrors of the metric families, readable without registry scraping).
type Stats struct {
	Served  uint64 `json:"served"`
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

// shardPreds is one shard's prediction state for one generation.
type shardPreds struct {
	genHash   string
	cluster   int
	preds     []core.Prediction
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
// assert every served Response equals core.SelectAmong over exactly
// this vector, which is only sound if the whole compute path is
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
		cluster:   cluster,
		preds:     preds,
		minPowerW: core.MinPredictedPowerW(preds),
	}
	sh.preds.Store(p)
	return p, nil
}

// Service answers selection queries. Construct with NewService; all
// methods are safe for concurrent use.
type Service struct {
	opts   Options
	now    func() time.Time
	shards map[string]*shard
	cache  *lruCache
	// slots is the in-flight semaphore: a computing request holds one
	// token, so its capacity is Options.MaxInFlight.
	slots chan struct{}

	gen      atomic.Pointer[generation]
	reloadMu sync.Mutex
	closed   atomic.Bool

	served  atomic.Uint64
	cachedN atomic.Uint64
	shed    atomic.Uint64
	reloads atomic.Uint64
}

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
	if opts.CacheSize == 0 {
		opts.CacheSize = 4096
	}
	if opts.CapQuantumW <= 0 {
		opts.CapQuantumW = DefaultCapQuantumW
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
		now:    opts.Now,
		shards: make(map[string]*shard, len(universe)),
		cache:  newLRUCache(opts.CacheSize),
		slots:  make(chan struct{}, opts.MaxInFlight),
	}
	if s.now == nil {
		s.now = time.Now
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
// quantized cap; responses echo it as EffectiveCapW.
func QuantizeCapW(capW, quantum float64) float64 {
	if quantum <= 0 {
		return capW
	}
	return math.Floor(capW/quantum) * quantum
}

// CapQuantumW reports the service's configured quantization step.
func (s *Service) CapQuantumW() float64 { return s.opts.CapQuantumW }

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

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Served:  s.served.Load(),
		Cached:  s.cachedN.Load(),
		Shed:    s.shed.Load(),
		Reloads: s.reloads.Load(),
	}
}

// Reload swaps in a new model generation atomically and purges cached
// selections whose content hash no longer matches. In-flight requests
// admitted under the previous generation complete against it and report
// its hash; requests admitted after the swap see the new generation.
// Reloading byte-identical model bytes advances the sequence but keeps
// the hash, so the cache stays warm — content addressing, not
// generation counting, decides validity.
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
	purged := s.cache.purgeExcept(hash)
	mCachePurged.Add(float64(purged))
	mReloads.Inc()
	s.reloads.Add(1)
	return g.hash, g.seq, nil
}

// Close stops accepting requests; selections already admitted finish
// on their callers' goroutines. Idempotent.
func (s *Service) Close() { s.closed.Store(true) }

// Select answers one query. A cache hit returns at once. A miss takes
// an in-flight slot or, when none is free, returns ErrOverloaded
// immediately; it then computes on the caller's goroutine and returns
// ctx's error if the deadline expires first.
func (s *Service) Select(ctx context.Context, req Request) (Response, error) {
	if err := req.Validate(); err != nil {
		mRequests.With("error").Inc()
		return Response{}, err
	}
	sh, ok := s.shards[req.Kernel]
	if !ok {
		mRequests.With("error").Inc()
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownKernel, req.Kernel)
	}
	if s.closed.Load() {
		mRequests.With("error").Inc()
		return Response{}, ErrClosed
	}

	gen := s.gen.Load()
	eff := QuantizeCapW(req.CapW, s.opts.CapQuantumW)
	key := cacheKey(gen.hash, req.Kernel, eff, req.Z)
	if resp, ok := s.cache.get(key); ok {
		mCacheHits.Inc()
		mRequests.With("cached").Inc()
		s.cachedN.Add(1)
		resp.CapW = req.CapW
		resp.Cached = true
		return resp, nil
	}
	mCacheMisses.Inc()

	select {
	case s.slots <- struct{}{}:
	default:
		mShed.Inc()
		s.shed.Add(1)
		mRequests.With("shed").Inc()
		return Response{}, fmt.Errorf("%w: %d selections in flight", ErrOverloaded, s.opts.MaxInFlight)
	}
	resp, err := s.compute(ctx, key, gen, sh, eff, req.Z)
	<-s.slots
	switch {
	case err == nil:
		resp.CapW = req.CapW
		mRequests.With("served").Inc()
		s.served.Add(1)
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		mRequests.With("deadline").Inc()
	default:
		mRequests.With("error").Inc()
	}
	return resp, err
}

// SelectBatch answers a batch item by item, so a duplicate item is
// served from the cache its first occurrence filled. Results and errors
// are parallel to reqs; the overall error is non-nil only when the
// batch itself is rejected (too large).
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

// compute answers one cache miss against generation gen and caches the
// answer under key. The caller holds an in-flight slot.
func (s *Service) compute(ctx context.Context, key string, gen *generation, sh *shard, capW, z float64) (Response, error) {
	admitted := s.now()
	if s.opts.computeGate != nil {
		s.opts.computeGate()
	}
	mQueueWait.Observe(s.now().Sub(admitted).Seconds())
	defer mSelectSeconds.Time()()
	sp, err := sh.predictions(gen)
	if err != nil {
		return Response{}, err
	}
	if err := s.slowShard(ctx, sh.kernel); err != nil {
		return Response{}, err
	}
	sel, err := core.SelectAmong(sp.preds, sp.cluster, capW, z)
	if err != nil {
		return Response{}, err
	}
	resp := Response{
		Kernel:        sh.kernel,
		CapW:          capW,
		EffectiveCapW: capW,
		Z:             z,
		Selection:     sel,
		MinPowerW:     sp.minPowerW,
		ModelHash:     gen.hash,
		ModelSeq:      gen.seq,
	}
	s.cache.put(key, gen.hash, resp)
	return resp, nil
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
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return nil
}

// cacheKey builds the content-addressed cache key. Float
// parameters enter as exact bit patterns: two caps quantize to the same
// key only when their effective caps are bitwise equal.
func cacheKey(genHash, kernel string, effCapW, z float64) string {
	return genHash + "|" + kernel + "|" +
		strconv.FormatUint(math.Float64bits(effCapW), 16) + "|" +
		strconv.FormatUint(math.Float64bits(z), 16)
}
