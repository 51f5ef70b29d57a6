package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/query"
	"acsel/internal/query/loadgen"
)

// heldOut is the benchmark left out of the online workloads' training
// set, so its kernels reach the service and the runtimes unseen, as in
// the paper's online stage.
const heldOut = "LULESH"

// selectClients is the closed-loop caller count of the select
// workloads (the benchmark machine has two CPUs).
const selectClients = 2

// selectTimeout is each request's deadline.
const selectTimeout = 2 * time.Second

// selectMix is one select workload's traffic.
type selectMix struct {
	kernels []string
	caps    []float64
	zs      []float64
	// reloadEvery hot-reloads the service every this many completions,
	// alternating between the trained models; 0 never reloads.
	reloadEvery int64
	// models is how many models set-up trains (seeds seed, seed+1, ...).
	models int
	// batch is the request count of one loadgen run.
	batch int
	// probeCaps is how many of the mix's caps the decision probe asks
	// about per kernel.
	probeCaps int
}

// universe is every kernel of the suite, by ID.
func universe() []string {
	var ids []string
	for _, c := range kernels.Combos() {
		for _, k := range c.Kernels {
			ids = append(ids, k.ID())
		}
	}
	return ids
}

// hotMix draws 4 kernels and 8 caps (quantized caps all distinct) at
// z = 0: 32 keys, all resident in the service's LRU.
func hotMix(seed int64, universe []string) selectMix {
	rng := rand.New(rand.NewSource(seed))
	ks := append([]string(nil), universe...)
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	cells := rng.Perm(int(32 / query.DefaultCapQuantumW))[:8] // distinct quanta in [8 W, 40 W)
	var caps []float64
	for _, c := range cells {
		caps = append(caps, 8+(float64(c)+rng.Float64())*query.DefaultCapQuantumW)
	}
	return selectMix{kernels: ks[:4], caps: caps, zs: []float64{0}, models: 1, batch: 50_000, probeCaps: 8}
}

// churnMix spreads caps continuously over 5–45 W — one cap in every
// quantum, 1,280 distinct quantized caps per kernel — over every
// kernel, with z in {0, 0.5, 1, 2} and a hot reload every 10k
// completions.
func churnMix(seed int64, universe []string) selectMix {
	rng := rand.New(rand.NewSource(seed))
	n := int(40 / query.DefaultCapQuantumW)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 5 + (float64(i)+rng.Float64())*query.DefaultCapQuantumW
	}
	return selectMix{
		kernels: append([]string(nil), universe...), caps: caps, zs: []float64{0, 0.5, 1, 2},
		reloadEvery: 10_000, models: 2, batch: 20_000, probeCaps: 16,
	}
}

// trainOnline trains n models on every benchmark but heldOut, with
// clustering seeds seed, seed+1, ...: one characterization (1 profiling
// iteration), n trainings.
func trainOnline(seed int64, n int) ([]*core.Model, error) {
	var ks []kernels.Kernel
	for _, c := range kernels.Combos() {
		if c.Benchmark != heldOut {
			ks = append(ks, c.Kernels...)
		}
	}
	p := profiler.New()
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := core.Characterize(p, ks, opts)
	if err != nil {
		return nil, err
	}
	var models []*core.Model
	for i := 0; i < n; i++ {
		opts.Seed = seed + int64(i)
		m, err := core.Train(p.Space, profs, opts)
		if err != nil {
			return nil, fmt.Errorf("training model %d: %w", i, err)
		}
		models = append(models, m)
	}
	return models, nil
}

// oracleEntry is one (model, kernel) prediction vector.
type oracleEntry struct {
	preds     []core.Prediction
	cluster   int
	minPowerW float64
}

// selectOracle is the single-threaded reference for every generation a
// run can be served by, keyed by model hash then kernel.
type selectOracle struct {
	quantum float64
	preds   map[string]map[string]oracleEntry
}

func newSelectOracle(s *query.Service, models []*core.Model) (*selectOracle, error) {
	o := &selectOracle{quantum: s.CapQuantumW(), preds: map[string]map[string]oracleEntry{}}
	for _, m := range models {
		hash, err := m.Hash()
		if err != nil {
			return nil, err
		}
		byKernel := map[string]oracleEntry{}
		for _, k := range s.Kernels() {
			sr, _ := s.SampleRuns(k)
			preds, cluster, err := m.PredictAll(sr)
			if err != nil {
				return nil, err
			}
			byKernel[k] = oracleEntry{preds: preds, cluster: cluster, minPowerW: core.MinPredictedPowerW(preds)}
		}
		o.preds[hash] = byKernel
	}
	return o, nil
}

// verify checks one response bitwise against core.SelectAmong over the
// predictions of the generation its ModelHash names.
func (o *selectOracle) verify(req query.Request, resp query.Response) error {
	e, ok := o.preds[resp.ModelHash][req.Kernel]
	if !ok {
		return fmt.Errorf("response names unknown generation %.12s or kernel %q", resp.ModelHash, req.Kernel)
	}
	eff := query.QuantizeCapW(req.CapW, o.quantum)
	if resp.EffectiveCapW != eff { //lint:ignore floatcmp the oracle is bitwise
		return fmt.Errorf("effective cap %v, oracle %v", resp.EffectiveCapW, eff)
	}
	want, err := core.SelectAmong(e.preds, e.cluster, eff, req.Z)
	if err != nil {
		return err
	}
	if resp.Selection != want || resp.MinPowerW != e.minPowerW { //lint:ignore floatcmp the oracle is bitwise
		return fmt.Errorf("selection %+v (min %v W), oracle %+v (min %v W)", resp.Selection, resp.MinPowerW, want, e.minPowerW)
	}
	return nil
}

// selectSetup is what set-up hands the measurement loop.
type selectSetup struct {
	svc    *query.Service
	models []*core.Model
	oracle *selectOracle
	mix    selectMix
}

// timedDriver wraps the service as the loadgen.Driver: it times every
// request exactly, records spans when tracing, and fires the mix's hot
// reloads by completion count.
type timedDriver struct {
	svc    *query.Service
	models []*core.Model
	every  int64

	// tr and lat are set between loadgen runs, never during one.
	tr  *tracer
	lat []time.Duration

	n         atomic.Int64 // requests of the current loadgen run
	done      atomic.Int64 // completions over the whole run
	reloads   atomic.Int64
	reloadErr atomic.Pointer[error]

	// record, when set, observes every request (self-tests).
	record func(query.Request)
}

func (d *timedDriver) Select(ctx context.Context, req query.Request) (query.Response, error) {
	sp := d.tr.begin("query.select", 0, 0)
	t0 := time.Now()
	resp, err := d.svc.Select(ctx, req)
	el := time.Since(t0)
	sp.end()
	if i := d.n.Add(1) - 1; i < int64(len(d.lat)) {
		d.lat[i] = el
	}
	if d.record != nil {
		d.record(req)
	}
	if d.every > 0 && d.done.Add(1)%d.every == 0 {
		k := d.reloads.Add(1)
		rs := d.tr.begin("query.reload", 0, 0)
		_, _, rerr := d.svc.Reload(d.models[k%int64(len(d.models))])
		rs.end()
		if rerr != nil {
			d.reloadErr.CompareAndSwap(nil, &rerr)
		}
	}
	return resp, err
}

// batchSeed derives one loadgen run's seed from the run seed and the
// batch index (splitmix64), so batches draw independent streams.
func batchSeed(seed int64, batch int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(batch+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z >> 1)
}

func runSelectHot(cfg runConfig) (*outcome, error) {
	return runSelect(cfg, hotMix, selectClients, nil)
}

func runSelectChurn(cfg runConfig) (*outcome, error) {
	return runSelect(cfg, churnMix, selectClients, nil)
}

// runSelect drives query.Service in-process at default Options from
// `clients` closed-loop loadgen callers, in fixed-size batches until the
// run's time is up, after one unmeasured warm-up batch.
func runSelect(cfg runConfig, mixOf func(int64, []string) selectMix, clients int, record func(query.Request)) (*outcome, error) {
	out := newOutcome()
	zeroLayers(out)
	var prev *query.Service
	st, err := timeSetup(out, func() (selectSetup, error) {
		if prev != nil {
			prev.Close()
		}
		mix := mixOf(cfg.seed, universe())
		models, err := trainOnline(cfg.seed, mix.models)
		if err != nil {
			return selectSetup{}, err
		}
		svc, err := query.NewService(models[0], query.Options{})
		if err != nil {
			return selectSetup{}, err
		}
		prev = svc
		o, err := newSelectOracle(svc, models)
		if err != nil {
			return selectSetup{}, err
		}
		return selectSetup{svc: svc, models: models, oracle: o, mix: mix}, nil
	})
	if prev != nil {
		defer prev.Close()
	}
	if err != nil {
		return nil, err
	}
	mix := st.mix
	d := &timedDriver{svc: st.svc, models: st.models, every: mix.reloadEvery, record: record,
		lat: make([]time.Duration, mix.batch)}

	lcfg := loadgen.Config{
		Workers: clients, Requests: mix.batch,
		Kernels: mix.kernels, CapsW: mix.caps, Zs: mix.zs, Timeout: selectTimeout,
		Verify: st.oracle.verify,
	}
	ctx := context.Background()

	// batchResult is one loadgen run.
	type batchResult struct {
		sum  loadgen.Summary
		wall time.Duration
		cpu  time.Duration
		lat  []float64 // sorted, seconds
	}
	runBatch := func(i int, tr *tracer) (batchResult, error) {
		d.tr = tr
		d.n.Store(0)
		lcfg.Seed = batchSeed(cfg.seed, i)
		c0, t0 := cpuTime(), time.Now()
		sum, err := loadgen.Run(ctx, d, lcfg)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return batchResult{}, err
		}
		out.attempted += int64(sum.Requests)
		if n := sum.Shed + sum.Deadline + sum.Errors + sum.Mismatches; n > 0 {
			out.failMany(int64(n), fmt.Sprintf("batch %d: %d shed, %d past deadline, %d errors, %d oracle mismatches: %v",
				i, sum.Shed, sum.Deadline, sum.Errors, sum.Mismatches, sum.MismatchSamples))
		}
		if e := d.reloadErr.Load(); e != nil {
			return batchResult{}, fmt.Errorf("hot reload: %w", *e)
		}
		n := int(d.n.Load())
		if n > len(d.lat) {
			n = len(d.lat)
		}
		lat := make([]float64, n)
		for j, l := range d.lat[:n] {
			lat[j] = l.Seconds()
		}
		sort.Float64s(lat)
		return batchResult{sum: sum, wall: wall, cpu: cpu, lat: lat}, nil
	}

	if _, err := runBatch(0, nil); err != nil { // warm-up: fills the LRU and the shards' predictions
		return nil, err
	}

	var p50s, p99s, rates, cpus []float64
	var units int64
	var tracedWall, untracedWall []float64
	var traced loadgen.Summary
	var tracedQueue, tracedCompute [2]float64 // sum, count
	start := time.Now()
	for i := 1; ; i++ {
		if cfg.maxUnits > 0 {
			if i > cfg.maxUnits {
				break
			}
		} else if time.Since(start).Seconds() >= cfg.seconds &&
			(cfg.tr == nil || (len(tracedWall) > 0 && len(untracedWall) > 0)) {
			break
		}
		tr := cfg.tr
		if i%2 == 0 {
			tr = nil
		}
		var before registry
		if tr != nil {
			before = readRegistry()
		}
		b, err := runBatch(i, tr)
		if err != nil {
			return nil, err
		}
		out.sampleHeap()
		units += int64(b.sum.Requests)
		rates = append(rates, float64(b.sum.Requests)/b.wall.Seconds())
		cpus = append(cpus, b.cpu.Seconds()/float64(b.sum.Requests))
		p50s = append(p50s, quantile(b.lat, 0.5))
		p99s = append(p99s, quantile(b.lat, 0.99))
		if cfg.tr == nil {
			continue
		}
		perReq := b.wall.Seconds() / float64(b.sum.Requests)
		if tr == nil {
			untracedWall = append(untracedWall, perReq)
			continue
		}
		tracedWall = append(tracedWall, perReq)
		after := readRegistry()
		s, c := histDelta(before, after, "acsel_query_queue_wait_seconds", "")
		tracedQueue[0], tracedQueue[1] = tracedQueue[0]+s, tracedQueue[1]+float64(c)
		s, c = histDelta(before, after, "acsel_query_select_seconds", "")
		tracedCompute[0], tracedCompute[1] = tracedCompute[0]+s, tracedCompute[1]+float64(c)
		traced.Requests += b.sum.Requests
		traced.OK += b.sum.OK
		traced.Cached += b.sum.Cached
		traced.Coalesced += b.sum.Coalesced
		traced.Shed += b.sum.Shed
	}
	if units == 0 {
		return nil, errors.New("no request completed")
	}

	stats := st.svc.Stats()
	finishE2E(out, cpus, p50s)
	out.name("select_rps", median(rates), "1/s")
	out.name("select_p50_us", median(p50s)*1e6, "us")
	out.name("select_p99_us", median(p99s)*1e6, "us")
	out.name("select_cpu_us", median(cpus)*1e6, "us")
	out.name("cache_hit_ratio", ratio(int64(stats.Cached), int64(stats.Served+stats.Cached)), "ratio")
	out.name("reloads", float64(d.reloads.Load()), "count")

	if cfg.tr != nil {
		out.layers["query.cache_hit_ratio"] = ratio(int64(traced.Cached), int64(traced.OK))
		out.layers["query.coalesced_ratio"] = ratio(int64(traced.Coalesced), int64(traced.OK))
		if tracedQueue[1] > 0 {
			out.layers["query.queue_wait_us"] = tracedQueue[0] / tracedQueue[1] * 1e6
		}
		if tracedCompute[1] > 0 {
			out.layers["query.compute_us"] = tracedCompute[0] / tracedCompute[1] * 1e6
		}
		out.layers["query.reload_us"] = cfg.tr.meanCallNs("query.reload") / 1e3
		out.layers["query.shed"] = float64(traced.Shed)
		out.layers["trace.overhead_ratio"] = median(tracedWall) / median(untracedWall)
		if err := probeDecisions(cfg.tr, serviceCases(st), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serviceCases builds the decision probe's inputs from a select
// workload: each model under every kernel of the mix, over an even
// spread of the mix's caps.
func serviceCases(st selectSetup) []decisionCase {
	step := len(st.mix.caps) / st.mix.probeCaps
	if step < 1 {
		step = 1
	}
	var caps []float64
	for i := 0; i < len(st.mix.caps); i += step {
		caps = append(caps, st.mix.caps[i])
	}
	var cases []decisionCase
	for _, m := range st.models {
		for _, k := range st.mix.kernels {
			sr, _ := st.svc.SampleRuns(k)
			cases = append(cases, decisionCase{model: m, sr: sr, caps: caps})
		}
	}
	return cases
}
