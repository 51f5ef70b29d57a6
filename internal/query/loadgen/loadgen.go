// Package loadgen is a deterministic closed-loop load generator for the
// selection query service. A run is fully specified by its Config —
// seeded per-worker RNG streams pick (kernel, cap, z) tuples, workers
// issue requests back-to-back with a per-request deadline — so two runs
// of the same config issue the identical request multiset regardless of
// scheduling. The soak tests drive it against both the in-process
// Service and the HTTP Client (the Driver interface covers both) and
// verify every response against a single-threaded oracle.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acsel/internal/metrics"
	"acsel/internal/query"
)

// Driver answers selection queries; *query.Service and *query.Client
// both satisfy it, so the same workload runs in-process and over HTTP.
type Driver interface {
	Select(ctx context.Context, req query.Request) (query.Response, error)
}

// Config specifies one reproducible run.
type Config struct {
	// Workers is the closed-loop worker count (default 4).
	Workers int
	// Requests is the total request budget across workers (default 1000).
	Requests int
	// Seed keys every worker's RNG stream; same seed, same workload.
	Seed int64
	// Kernels, CapsW, Zs are the request dimensions each worker samples
	// uniformly. Kernels and CapsW are required; Zs defaults to {0}.
	Kernels []string
	CapsW   []float64
	Zs      []float64
	// Timeout is the per-request deadline (default 2s). A request never
	// outlives it: the service's Select returns the context's error
	// once it expires, cutting short any injected slow-shard delay.
	Timeout time.Duration
	// Verify, when set, checks each successful response (the soak
	// test's oracle seat). A non-nil return counts as a mismatch.
	Verify func(req query.Request, resp query.Response) error
	// OnResult, when set, observes the global completion count after
	// each request finishes (success or failure). Called concurrently
	// from every worker; the soak test uses it to trigger hot reloads
	// at fixed points in the run without sleeping.
	OnResult func(done int)
	// Now is the latency clock (time.Now if nil); injected so summaries
	// stay derivable in replay harnesses.
	Now func() time.Time
}

// Summary aggregates one run. Latency quantiles are estimated from a
// private fixed-bucket histogram (metrics.Histogram.Quantile), so the
// artifact is stable in layout and cheap to merge.
type Summary struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	// Cached counts responses marked Cached, which query.Service never
	// marks: it caches no selections. The field stays for readers of
	// the summary.
	Cached int `json:"cached"`
	// Coalesced always reads 0: the service computes each selection
	// on the caller's goroutine and no longer merges identical
	// in-flight requests. The field stays for readers of the summary.
	Coalesced  int `json:"coalesced"`
	Shed       int `json:"shed"`
	Deadline   int `json:"deadline"`
	Errors     int `json:"errors"`
	Mismatches int `json:"mismatches"`
	// MismatchSamples holds up to maxSamples rendered mismatches /
	// unexpected errors for diagnosis.
	MismatchSamples []string `json:"mismatch_samples,omitempty"`
	// ByGeneration counts successful responses per model hash — the
	// hot-reload tests assert every generation that should have served
	// traffic did.
	ByGeneration map[string]int `json:"by_generation"`

	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
}

// maxSamples bounds the rendered diagnostics kept per run.
const maxSamples = 5

// workerSeedStride separates per-worker RNG streams; any large odd
// constant works, it only has to be fixed.
const workerSeedStride = 1_000_003

// Run drives d with the configured workload and returns the aggregate.
// The error reports config problems only; request-level failures are
// counted in the Summary.
func Run(ctx context.Context, d Driver, cfg Config) (Summary, error) {
	if d == nil {
		return Summary{}, errors.New("loadgen: nil driver")
	}
	if len(cfg.Kernels) == 0 || len(cfg.CapsW) == 0 {
		return Summary{}, errors.New("loadgen: Kernels and CapsW are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	if len(cfg.Zs) == 0 {
		cfg.Zs = []float64{0}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}

	// A private registry keeps run-local latency data out of the
	// process-wide exposition.
	hist := metrics.NewRegistry().NewHistogram("acsel_loadgen_latency_seconds",
		"Per-request latency of one load-generator run.",
		metrics.ExponentialBuckets(1e-5, 1.9, 24))

	var done atomic.Int64
	parts := make([]Summary, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		n := cfg.Requests / cfg.Workers
		if w < cfg.Requests%cfg.Workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*workerSeedStride))
			parts[w] = runWorker(ctx, d, cfg, rng, n, now, hist, &done)
		}(w, n)
	}
	wg.Wait()

	var sum Summary
	sum.ByGeneration = map[string]int{}
	for _, p := range parts {
		sum.Requests += p.Requests
		sum.OK += p.OK
		sum.Cached += p.Cached
		sum.Shed += p.Shed
		sum.Deadline += p.Deadline
		sum.Errors += p.Errors
		sum.Mismatches += p.Mismatches
		for _, s := range p.MismatchSamples {
			if len(sum.MismatchSamples) < maxSamples {
				sum.MismatchSamples = append(sum.MismatchSamples, s)
			}
		}
		for g, c := range p.ByGeneration {
			sum.ByGeneration[g] += c
		}
		if p.MaxSeconds > sum.MaxSeconds {
			sum.MaxSeconds = p.MaxSeconds
		}
	}
	sum.P50Seconds = hist.Quantile(0.50)
	sum.P95Seconds = hist.Quantile(0.95)
	sum.P99Seconds = hist.Quantile(0.99)
	return sum, nil
}

// runWorker is one closed-loop worker: n requests back-to-back, each
// drawn from the worker's own deterministic stream.
func runWorker(ctx context.Context, d Driver, cfg Config, rng *rand.Rand, n int,
	now func() time.Time, hist *metrics.Histogram, done *atomic.Int64) Summary {
	part := Summary{ByGeneration: map[string]int{}}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return part
		}
		req := query.Request{
			Kernel: cfg.Kernels[rng.Intn(len(cfg.Kernels))],
			CapW:   cfg.CapsW[rng.Intn(len(cfg.CapsW))],
			Z:      cfg.Zs[rng.Intn(len(cfg.Zs))],
		}
		start := now()
		rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
		resp, err := d.Select(rctx, req)
		cancel()
		lat := now().Sub(start).Seconds()
		hist.Observe(lat)
		if lat > part.MaxSeconds {
			part.MaxSeconds = lat
		}
		part.Requests++
		switch {
		case err == nil:
			part.OK++
			if resp.Cached {
				part.Cached++
			}
			part.ByGeneration[resp.ModelHash]++
			if cfg.Verify != nil {
				if verr := cfg.Verify(req, resp); verr != nil {
					part.Mismatches++
					if len(part.MismatchSamples) < maxSamples {
						part.MismatchSamples = append(part.MismatchSamples,
							fmt.Sprintf("req %+v: %v", req, verr))
					}
				}
			}
		case errors.Is(err, query.ErrOverloaded):
			part.Shed++
		case errors.Is(err, context.DeadlineExceeded):
			part.Deadline++
		default:
			part.Errors++
			if len(part.MismatchSamples) < maxSamples {
				part.MismatchSamples = append(part.MismatchSamples,
					fmt.Sprintf("req %+v: unexpected error: %v", req, err))
			}
		}
		if cfg.OnResult != nil {
			cfg.OnResult(int(done.Add(1)))
		} else {
			done.Add(1)
		}
	}
	return part
}

// Generations lists the model hashes a run was served by, sorted, so
// callers render deterministic artifacts.
func (s Summary) Generations() []string {
	out := make([]string, 0, len(s.ByGeneration))
	for g := range s.ByGeneration {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
