package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/fleet"
	"acsel/internal/hierarchy"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/rts"
)

// Fleet workload shape. Round cost grows with each runtime's step
// history, so every session runs a fixed number of epochs from fresh
// runtimes.
const (
	fleetBudgetW      = 56.0
	fleetEpochs       = 150
	fleetPolicy       = hierarchy.WaterFill
	fleetCapTolerance = 1e-6
)

// fleetNodeNames are the two agents, in the coordinator's (sorted)
// division order.
var fleetNodeNames = [2]string{"node-a", "node-b"}

// fleetApps picks each node's application. Both nodes run LULESH —
// held out of training, so its kernels reach the runtimes unseen — one
// on each input; the seed decides which node runs which. Every seed
// thus runs the same per-epoch work, which keeps the round and step
// figures comparable across seeds (round and step cost depend on the
// application's kernel count and input).
func fleetApps(seed int64) [2]kernels.Combo {
	var pool []kernels.Combo
	for _, c := range kernels.Combos() {
		if c.Benchmark == heldOut {
			pool = append(pool, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(len(pool))
	return [2]kernels.Combo{pool[first], pool[(first+1)%len(pool)]}
}

// spanHeader carries the client span identifier to the agent's handler,
// so server-side spans nest under the RPC that caused them.
const spanHeader = "Perfbench-Span"

// fleetTrace is the tracing state shared with the HTTP transport and
// the agents' handlers. The epoch loop switches it between epochs;
// RPCs read it during the round.
type fleetTrace struct {
	tr     atomic.Pointer[tracer]
	parent atomic.Uint64 // current round span
	trace  atomic.Uint64 // current epoch trace

	// reportBytes and reportsServed count traced report bodies.
	reportBytes   atomic.Int64
	reportsServed atomic.Int64

	mu      sync.Mutex
	reports map[string][]byte // report bodies served this traced round, by node
}

// transport times the coordinator's report pulls and cap pushes: each
// span runs from the request until its response body is closed.
type transport struct {
	ft   *fleetTrace
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.ft.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	name := "fleet.push_rpc"
	if req.URL.Path == fleet.PathReport {
		name = "fleet.report_rpc"
	}
	sp := tr.begin(name, t.ft.parent.Load(), t.ft.trace.Load())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	sp   spanHandle
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.sp.end() })
	return err
}

// keepingWriter keeps a copy of the response body it passes on.
type keepingWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *keepingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.body.Write(p[:n])
	return n, err
}

// agentHandler serves one agent's mux, timing report requests
// server-side and keeping their bodies for the in-process divide check.
func (ft *fleetTrace) agentHandler(node string, mux http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := ft.tr.Load()
		if tr == nil || req.URL.Path != fleet.PathReport {
			mux.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		kw := &keepingWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(kw, req)
		tr.recordDuration("fleet.report_build", parent, ft.trace.Load(), start, time.Since(start), 1)
		ft.reportBytes.Add(int64(kw.body.Len()))
		ft.reportsServed.Add(1)
		ft.mu.Lock()
		ft.reports[node] = kw.body.Bytes()
		ft.mu.Unlock()
	})
}

// fleetSession is one coordinator and two agents over loopback HTTP,
// with fresh runtimes.
type fleetSession struct {
	coord    *fleet.Coordinator
	runtimes [2]*rts.Runtime
	apps     [2][]kernels.Kernel
	servers  []*http.Server
	client   *http.Client
	wg       sync.WaitGroup
}

func discardLog(string, ...any) {}

// newFleetSession starts the servers, builds the runtimes (FL on,
// initial caps an even split of the budget) and joins both agents.
func newFleetSession(model *core.Model, apps [2]kernels.Combo, ft *fleetTrace) (*fleetSession, error) {
	s := &fleetSession{client: &http.Client{Transport: &transport{ft: ft, base: &http.Transport{
		MaxIdleConnsPerHost: 4,
	}}}}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		s.servers = append(s.servers, srv)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
		}()
		return "http://" + ln.Addr().String(), nil
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		BudgetW: fleetBudgetW, Policy: fleetPolicy, LeaseTTL: time.Hour,
		Client: &fleet.Client{HTTP: s.client}, Logf: discardLog,
	})
	if err != nil {
		return nil, err
	}
	s.coord = coord
	cmux := http.NewServeMux()
	coord.Register(cmux)
	coordURL, err := serve(cmux)
	if err != nil {
		s.close()
		return nil, err
	}
	hbClient := &fleet.Client{HTTP: s.client}
	for i, name := range fleetNodeNames {
		rt, err := rts.New(model, rts.Options{CapW: fleetBudgetW / 2, FL: true})
		if err != nil {
			s.close()
			return nil, err
		}
		s.runtimes[i], s.apps[i] = rt, apps[i].Kernels
		agent, err := fleet.NewAgent(name, rt, apps[i].Kernels, fleet.AgentOptions{Coordinator: coordURL, Logf: discardLog})
		if err != nil {
			s.close()
			return nil, err
		}
		mux := http.NewServeMux()
		agent.Register(mux)
		url, err := serve(ft.agentHandler(name, mux))
		if err != nil {
			s.close()
			return nil, err
		}
		hb := fleet.Heartbeat{Version: fleet.ProtocolVersion, Name: name, Addr: url}
		if _, err := hbClient.SendHeartbeat(context.Background(), coordURL, hb); err != nil {
			s.close()
			return nil, fmt.Errorf("joining %s: %w", name, err)
		}
	}
	return s, nil
}

// close stops every server and waits for their goroutines.
func (s *fleetSession) close() {
	for _, srv := range s.servers {
		_ = srv.Close() // Close only reports listener errors, which no caller acts on
	}
	s.wg.Wait()
	s.client.CloseIdleConnections()
	if s.coord != nil {
		_ = s.coord.Close() // no journal is configured, so Close has nothing to flush
	}
}

func runFleetRounds(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	zeroLayers(out)
	apps := fleetApps(cfg.seed)
	ft := &fleetTrace{reports: map[string][]byte{}}

	type fleetSetup struct {
		model *core.Model
		sess  *fleetSession
	}
	var prev *fleetSession
	st, err := timeSetup(out, func() (fleetSetup, error) {
		if prev != nil {
			prev.close()
			prev = nil
		}
		// The clustering seed is the default, not the run's: the model
		// picks every step's configuration, so a per-seed model would make
		// step and round cost depend on the seed.
		models, err := trainOnline(core.DefaultTrainOptions().Seed, 1)
		if err != nil {
			return fleetSetup{}, err
		}
		sess, err := newFleetSession(models[0], apps, ft)
		if err != nil {
			return fleetSetup{}, err
		}
		prev = sess
		return fleetSetup{model: models[0], sess: sess}, nil
	})
	if err != nil {
		if prev != nil {
			prev.close()
		}
		return nil, err
	}

	ctx := context.Background()
	var rounds, stepSample, stepPinned []float64
	var tracedEpochs, untracedEpochs, rates []float64
	// cpus and p50s hold one value per pair of sessions: which node runs
	// which input changes the round and step cost by up to a fifth, so
	// sessions alternate the assignment and every interval covers both.
	var cpus, p50s, pairRounds []float64
	var pairCPU time.Duration
	flushPair := func() {
		sorted := append([]float64(nil), pairRounds...)
		sort.Float64s(sorted)
		p50s = append(p50s, quantile(sorted, 0.5))
		cpus = append(cpus, pairCPU.Seconds()/float64(len(pairRounds)))
		pairRounds, pairCPU = pairRounds[:0], 0
	}
	before := readRegistry()
	sess := st.sess
	start := time.Now()
	for session := 0; ; session++ {
		if cfg.maxUnits > 0 {
			if session >= cfg.maxUnits {
				break
			}
		} else if session%2 == 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if sess == nil {
			pair := apps
			if session%2 == 1 {
				pair = [2]kernels.Combo{apps[1], apps[0]}
			}
			if sess, err = newFleetSession(st.model, pair, ft); err != nil {
				return nil, err
			}
		}
		err := func() error {
			defer sess.close()
			var sessWall time.Duration
			c0 := cpuTime()
			for epoch := 0; epoch < fleetEpochs; epoch++ {
				var tr *tracer
				if epoch%2 == 0 {
					tr = cfg.tr
				}
				d, err := runFleetEpoch(ctx, sess, tr, ft, epoch, out, &pairRounds, &stepSample, &stepPinned)
				if err != nil {
					return err
				}
				sessWall += d
				if cfg.tr != nil && tr != nil {
					tracedEpochs = append(tracedEpochs, d.Seconds())
				} else if cfg.tr != nil {
					untracedEpochs = append(untracedEpochs, d.Seconds())
				}
			}
			rates = append(rates, fleetEpochs/sessWall.Seconds())
			pairCPU += cpuTime() - c0
			out.sampleHeap() // the runtimes' histories are longest now
			return nil
		}()
		sess = nil
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, pairRounds[len(pairRounds)-fleetEpochs:]...)
		if session%2 == 1 {
			flushPair()
		}
	}
	if len(pairRounds) > 0 { // a run bounded by an odd number of sessions
		flushPair()
	}
	after := readRegistry()
	if n := after.counter("acsel_fleet_rpc_retries_total") - before.counter("acsel_fleet_rpc_retries_total"); n > 0 {
		out.failMany(int64(n), fmt.Sprintf("%v fleet RPC attempts were retried", n))
	}
	if len(rounds) == 0 {
		return nil, errors.New("no round completed")
	}

	steps := append(append([]float64(nil), stepSample...), stepPinned...)
	sorted := append([]float64(nil), rounds...)
	sort.Float64s(sorted)
	finishE2E(out, cpus, p50s)
	out.name("round_p50_ms", quantile(sorted, 0.5)*1e3, "ms")
	out.name("round_p95_ms", quantile(sorted, 0.95)*1e3, "ms")
	out.name("round_p99_ms", quantile(sorted, 0.99)*1e3, "ms")
	out.name("step_p50_us", median(steps)*1e6, "us")
	out.name("epochs_per_s", median(rates), "1/s")
	out.name("epoch_cpu_ms", median(cpus)*1e3, "ms")
	out.name("rounds", float64(len(rounds)), "count")
	out.note("applications: %s on %s, %s on %s in even sessions, swapped in odd ones",
		apps[0].Label(), fleetNodeNames[0], apps[1].Label(), fleetNodeNames[1])

	if cfg.tr != nil {
		tr := cfg.tr
		out.layers["rts.step_sample_us"] = tr.meanCallNs("rts.step_sample") / 1e3
		out.layers["rts.step_pinned_us"] = tr.meanCallNs("rts.step_pinned") / 1e3
		out.layers["rts.steps_snapshot_us"] = tr.meanCallNs("rts.steps_snapshot") / 1e3
		out.layers["fleet.report_build_us"] = tr.meanCallNs("fleet.report_build") / 1e3
		out.layers["fleet.report_rpc_us"] = tr.meanCallNs("fleet.report_rpc") / 1e3
		out.layers["fleet.push_rpc_us"] = tr.meanCallNs("fleet.push_rpc") / 1e3
		out.layers["fleet.report_bytes"] = ratio(ft.reportBytes.Load(), ft.reportsServed.Load())
		out.layers["hierarchy.divide_us"] = tr.meanCallNs("hierarchy.divide") / 1e3
		out.layers["profiler.runs"] = (after.counter("acsel_profiler_runs_total") - before.counter("acsel_profiler_runs_total")) /
			float64(len(rounds))
		out.layers["trace.overhead_ratio"] = median(tracedEpochs) / median(untracedEpochs)
		cases, err := appCases(st.model, apps)
		if err != nil {
			return nil, err
		}
		if err := probeDecisions(tr, cases, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appCases builds the decision probe's inputs from the fleet's
// applications: each kernel's two sample runs under the runtimes'
// model, asked about caps across the range a node can be given.
func appCases(model *core.Model, apps [2]kernels.Combo) ([]decisionCase, error) {
	p := profiler.New()
	caps := []float64{hierarchy.MinNodeCapW, fleetBudgetW / 4, fleetBudgetW / 2, fleetBudgetW - hierarchy.MinNodeCapW}
	var cases []decisionCase
	for _, c := range apps {
		for _, k := range c.Kernels {
			cpu, err := p.RunConfig(k, apu.SampleConfigCPU(), 0)
			if err != nil {
				return nil, err
			}
			gpu, err := p.RunConfig(k, apu.SampleConfigGPU(), 1)
			if err != nil {
				return nil, err
			}
			cases = append(cases, decisionCase{model: model, sr: core.SampleRuns{CPU: cpu, GPU: gpu}, caps: caps})
		}
	}
	return cases, nil
}

// runFleetEpoch runs every node's application kernels once, then one
// rebalance round, and checks the round's invariants. It returns the
// epoch's wall time.
func runFleetEpoch(ctx context.Context, s *fleetSession, tr *tracer, ft *fleetTrace, epoch int,
	out *outcome, rounds, stepSample, stepPinned *[]float64) (time.Duration, error) {
	epochStart := time.Now()
	ep := tr.begin("fleet.epoch", 0, 0)
	for i, rt := range s.runtimes {
		for _, k := range s.apps[i] {
			sp := tr.begin("rts.step", ep.id, ep.trace)
			t0 := time.Now()
			step, err := rt.RunKernel(k)
			d := time.Since(t0).Seconds()
			out.attempted++
			if err != nil {
				sp.end()
				out.fail("epoch %d: %s step of %s: %v", epoch, fleetNodeNames[i], k.ID(), err)
				continue
			}
			if step.Phase == rts.PhasePinned {
				sp.name = "rts.step_pinned"
				*stepPinned = append(*stepPinned, d)
			} else {
				sp.name = "rts.step_sample"
				*stepSample = append(*stepSample, d)
			}
			sp.end()
		}
	}

	ft.tr.Store(tr)
	rs := tr.begin("fleet.round", ep.id, ep.trace)
	ft.parent.Store(rs.id)
	ft.trace.Store(ep.trace)
	t0 := time.Now()
	res, err := s.coord.RebalanceOnce(ctx)
	d := time.Since(t0).Seconds()
	rs.end()
	ft.tr.Store(nil)
	out.attempted++
	*rounds = append(*rounds, d)
	if err != nil {
		out.fail("epoch %d: round: %v", epoch, err)
	} else if msg := checkRound(res, s); msg != "" {
		out.fail("epoch %d: %s", epoch, msg)
	}

	if tr != nil {
		for _, rt := range s.runtimes {
			sp := tr.begin("rts.steps_snapshot", ep.id, ep.trace)
			rt.Steps()
			sp.end()
		}
		if msg := checkDivide(tr, ep, ft, res); msg != "" {
			out.fail("epoch %d: %s", epoch, msg)
		}
	}
	ep.end()
	return time.Since(epochStart), nil
}

// checkRound applies the fleet invariants: no pull or push failed, the
// caps sum to the budget, each is at least the node floor, and each
// runtime now runs under exactly the cap pushed to it.
func checkRound(res fleet.RoundResult, s *fleetSession) string {
	if res.PullFailures > 0 || res.PushFailures > 0 {
		return fmt.Sprintf("%d pull and %d push failures", res.PullFailures, res.PushFailures)
	}
	if len(res.Caps) != len(fleetNodeNames) {
		return fmt.Sprintf("caps pushed to %d of %d nodes", len(res.Caps), len(fleetNodeNames))
	}
	total := 0.0
	for i, name := range fleetNodeNames {
		c := res.Caps[name]
		total += c
		if c < hierarchy.MinNodeCapW {
			return fmt.Sprintf("%s cap %v W below the %v W floor", name, c, hierarchy.MinNodeCapW)
		}
		if got := s.runtimes[i].Cap(); got != c { //lint:ignore floatcmp the runtime must hold exactly the pushed cap
			return fmt.Sprintf("%s runtime cap %v W, pushed %v W", name, got, c)
		}
	}
	if math.Abs(total-fleetBudgetW) > fleetCapTolerance {
		return fmt.Sprintf("caps sum to %v W, budget %v W", total, fleetBudgetW)
	}
	return ""
}

// checkDivide re-divides the budget in-process over the exact report
// bodies the agents served this round and requires the coordinator's
// pushed caps to match bit for bit; the in-process call is the
// hierarchy.divide span.
func checkDivide(tr *tracer, ep spanHandle, ft *fleetTrace, res fleet.RoundResult) string {
	ft.mu.Lock()
	bodies := ft.reports
	ft.reports = map[string][]byte{}
	ft.mu.Unlock()
	var views []hierarchy.NodeView
	for _, name := range fleetNodeNames {
		var r fleet.Report
		if err := json.Unmarshal(bodies[name], &r); err != nil {
			return fmt.Sprintf("decoding %s's served report: %v", name, err)
		}
		views = append(views, r.View())
	}
	sp := tr.begin("hierarchy.divide", ep.id, ep.trace)
	caps, err := hierarchy.Divide(fleetPolicy, views, fleetBudgetW)
	sp.end()
	if err != nil {
		return fmt.Sprintf("in-process divide: %v", err)
	}
	for i, name := range fleetNodeNames {
		if caps[i] != res.Caps[name] { //lint:ignore floatcmp local and remote division must agree bit for bit
			return fmt.Sprintf("in-process divide gives %s %v W, the coordinator pushed %v W", name, caps[i], res.Caps[name])
		}
	}
	return ""
}
