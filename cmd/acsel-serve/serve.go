package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync/atomic"
	"time"

	"acsel/internal/checkpoint"
	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/fleet"
	"acsel/internal/kernels"
	"acsel/internal/metrics"
	"acsel/internal/profiler"
	"acsel/internal/query"
	"acsel/internal/rts"
	"acsel/internal/supervise"
	"acsel/internal/trace"
)

// runSummary is the JSON document written at clean exit. The crash
// test compares the Summary (and epoch/step counts) of an interrupted
// and resumed service against an uninterrupted one; Recovered and
// ReplayedSteps are the recovery's own testimony and legitimately
// differ.
type runSummary struct {
	Bench         string      `json:"bench"`
	Input         string      `json:"input"`
	CapW          float64     `json:"cap_w"`
	Epochs        int         `json:"epochs"`
	Steps         int         `json:"steps"`
	Recovered     bool        `json:"recovered"`
	ReplayedSteps int         `json:"replayed_steps"`
	TornTail      bool        `json:"torn_tail"`
	Summary       rts.Summary `json:"summary"`
}

// service is one running instance of the daemon.
type service struct {
	cfg    config
	model  *core.Model     // trained at start; also served by -query
	faults *fault.Injector // the -fault-plan, nil for a clean run
	rt     *rts.Runtime
	app    []kernels.Kernel
	w      *checkpoint.Writer
	stderr io.Writer

	// agent is the node's fleet membership, when -fleet is set: the
	// coordinator pulls this runtime's report and pushes its cap
	// through the same mux that serves /metrics.
	agent *fleet.Agent

	// Position in the epoch schedule; derived from the journal on
	// recovery (the schedule never skips kernels, so the step count
	// fully determines it).
	epoch int
	pos   int

	recovered bool
	replayed  int
	tornTail  bool

	// Seam breakers, fed observationally from step outcomes and health
	// deltas. They never gate RunKernel — the schedule must stay
	// deterministic for crash recovery — they modulate readiness and
	// journal durability instead.
	brSMU    *supervise.Breaker
	brPState *supervise.Breaker
	brKernel *supervise.Breaker
	prev     map[string]rts.KernelHealth

	sup   *supervise.Supervisor
	ready atomic.Value // lifecycle string: starting / serving / stopping
}

var (
	errSMUSeam    = errors.New("smu seam: reading rejected or lost")
	errPStateSeam = errors.New("pstate seam: transition retried or failed")
	errKernelSeam = errors.New("kernel seam: divergence demoted the kernel")
)

// run builds, recovers, and drives the service until the epoch budget
// is spent or ctx is cancelled (SIGTERM/SIGINT), then snapshots the
// journal and writes the summary. Both exits are clean.
func run(ctx context.Context, cfg config, stderr io.Writer) error {
	s, err := newService(cfg, stderr)
	if err != nil {
		return err
	}
	if err := s.recover(); err != nil {
		return err
	}
	defer func() {
		s.w.Close() //lint:ignore errcheck final compaction already synced the data
	}()

	if cfg.Fleet != "" && cfg.Addr == "" {
		return errors.New("-fleet requires -addr (the coordinator calls the agent back)")
	}
	if cfg.Query && cfg.Addr == "" {
		return errors.New("-query requires -addr (the selection API is served over HTTP)")
	}
	if cfg.Addr != "" {
		mux := metrics.Default.NewMux()
		if cfg.Query {
			qs, qerr := query.NewService(s.model, query.Options{
				MaxInFlight: cfg.QueryInFlight,
				Faults:      s.faults,
			})
			if qerr != nil {
				return qerr
			}
			defer qs.Close()
			query.Register(mux, qs)
			fmt.Fprintf(stderr, "selection query API: POST %s, POST %s, GET/POST %s\n",
				query.PathSelect, query.PathSelectBatch, query.PathModels)
		}
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", s.readyz)
		if cfg.Fleet != "" {
			name := cfg.NodeName
			if name == "" {
				name = fmt.Sprintf("%s-%s", cfg.Bench, cfg.Input)
			}
			agent, aerr := fleet.NewAgent(name, s.rt, s.app, fleet.AgentOptions{
				Coordinator:    cfg.Fleet,
				HeartbeatEvery: cfg.HeartbeatEvery,
				OrphanAfter:    cfg.OrphanAfter,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(stderr, format+"\n", args...)
				},
			})
			if aerr != nil {
				return aerr
			}
			agent.Register(mux)
			s.agent = agent
		}
		addr, stopHTTP, err := metrics.ListenAndServe(cfg.Addr, mux)
		if err != nil {
			return err
		}
		defer func() {
			if err := stopHTTP(); err != nil {
				fmt.Fprintln(stderr, "acsel-serve: http shutdown:", err)
			}
		}()
		if s.agent != nil {
			go func() {
				if err := s.agent.Run(ctx, "http://"+addr); err != nil {
					fmt.Fprintln(stderr, "acsel-serve: fleet agent:", err)
				}
			}()
			fmt.Fprintf(stderr, "fleet member %s reporting to %s\n", s.agent.Name(), cfg.Fleet)
		}
		fmt.Fprintf(stderr, "serving http://%s/healthz /readyz /metrics\n", addr)
	}

	s.sup = supervise.New(supervise.Options{
		Name:        "serve-loop",
		MaxRestarts: cfg.MaxRestarts,
		OnRestart: func(attempt int, err error, backoff time.Duration) {
			fmt.Fprintf(stderr, "acsel-serve: worker restart %d after %v (backoff %v)\n", attempt, err, backoff)
		},
	})
	s.ready.Store("serving")
	err = s.sup.Run(ctx, s.loop)
	s.ready.Store("stopping")
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	// Clean completion or a signal: compact the journal to a single
	// snapshot so the next start restores instantly, then write the
	// summary.
	if err := s.compact(); err != nil {
		return err
	}
	if err := s.writeSummary(); err != nil {
		return err
	}
	sum := s.rt.Summarize()
	fmt.Fprintf(stderr, "acsel-serve: done: %d epochs, %d steps (%d replayed), %.3f s, %.1f J, %d violations\n",
		s.epoch, sum.Steps, s.replayed, sum.TimeSec, sum.EnergyJ, sum.Violations)
	return nil
}

// newService checks cfg, trains the model (leaving the application's
// benchmark out) and builds the runtime and its seam breakers. The
// journal is not opened yet: recover does that.
func newService(cfg config, stderr io.Writer) (*service, error) {
	if cfg.Journal == "" {
		return nil, errors.New("-journal is required")
	}
	if cfg.Epochs < 0 || cfg.CheckpointEvery < 0 {
		return nil, errors.New("-epochs and -checkpoint-every must be non-negative")
	}
	var inj *fault.Injector
	if cfg.FaultPlan != "" {
		var err error
		if inj, err = fault.ParsePlan(cfg.FaultPlan); err != nil {
			return nil, err
		}
	}

	var training, app []kernels.Kernel
	for _, c := range kernels.Combos() {
		if c.Benchmark == cfg.Bench {
			if c.Input == cfg.Input {
				app = c.Kernels
			}
			continue
		}
		training = append(training, c.Kernels...)
	}
	if len(app) == 0 {
		return nil, fmt.Errorf("unknown benchmark/input %s/%s", cfg.Bench, cfg.Input)
	}

	prof := profiler.New()
	opts := core.DefaultTrainOptions()
	if cfg.TrainIterations > 0 {
		opts.Iterations = cfg.TrainIterations
	}
	fmt.Fprintf(stderr, "training on %d kernels (leave-%s-out)...\n", len(training), cfg.Bench)
	profiles, err := core.Characterize(prof, training, opts)
	if err != nil {
		return nil, err
	}
	model, err := core.Train(prof.Space, profiles, opts)
	if err != nil {
		return nil, err
	}

	rt, err := rts.New(model, rts.Options{
		CapW: cfg.CapW, FL: cfg.FL, VarAwareZ: cfg.Z,
		Faults: inj, Watchdog: true,
	})
	if err != nil {
		return nil, err
	}

	s := &service{
		cfg: cfg, model: model, faults: inj, rt: rt, app: app, stderr: stderr,
		prev: map[string]rts.KernelHealth{},
		brSMU: supervise.NewBreaker(supervise.BreakerOptions{
			Name: "smu", FailureThreshold: 3, OpenCalls: 8, HalfOpenSuccesses: 2}),
		brPState: supervise.NewBreaker(supervise.BreakerOptions{
			Name: "pstate", FailureThreshold: 3, OpenCalls: 8, HalfOpenSuccesses: 2}),
		brKernel: supervise.NewBreaker(supervise.BreakerOptions{
			Name: "kernel", FailureThreshold: 2, OpenCalls: 8, HalfOpenSuccesses: 2}),
	}
	s.ready.Store("starting")
	return s, nil
}

// loop is the supervised worker: epochs until the budget is spent.
func (s *service) loop(ctx context.Context) error {
	for s.cfg.Epochs == 0 || s.epoch < s.cfg.Epochs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.timedEpoch(ctx); err != nil {
			return err
		}
		// A completed epoch is progress: the next failure backs off from
		// the base again.
		s.sup.ResetBackoff()
		if s.cfg.CheckpointEvery > 0 && s.epoch%s.cfg.CheckpointEvery == 0 {
			if err := s.compact(); err != nil {
				return err
			}
		}
		if s.cfg.EpochDelay > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(s.cfg.EpochDelay):
			}
		}
	}
	return nil
}

// timedEpoch runs one epoch, under the -epoch-deadline when one is
// set. An epoch that outlives its deadline — not cancelled by ctx —
// fails with a restartable error, so the supervisor restarts the worker
// rather than stopping the service.
func (s *service) timedEpoch(ctx context.Context) error {
	if s.cfg.EpochDeadline <= 0 {
		return s.runEpoch(ctx)
	}
	ectx, cancel := context.WithTimeout(ctx, s.cfg.EpochDeadline)
	defer cancel()
	err := s.runEpoch(ectx)
	if err != nil && ctx.Err() == nil && errors.Is(ectx.Err(), context.DeadlineExceeded) {
		mWatchdogTimeouts.With("epoch").Inc()
		return fmt.Errorf("epoch watchdog: deadline %v exceeded", s.cfg.EpochDeadline)
	}
	return err
}

// runEpoch drives every kernel once (resuming mid-epoch after a
// recovery), journaling each executed step.
func (s *service) runEpoch(ctx context.Context) error {
	for ; s.pos < len(s.app); s.pos++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	s.pos = 0
	s.epoch++
	mEpochs.Inc()
	return s.w.Sync()
}

// step runs the kernel at the current schedule position, journals the
// step and feeds the seam breakers with it.
func (s *service) step() error {
	k := s.app[s.pos]
	step, err := s.rt.RunKernel(k)
	if err != nil {
		return fmt.Errorf("epoch %d %s: %w", s.epoch, k.ID(), err)
	}
	rec, err := rts.EncodeStep(step)
	if err != nil {
		return err
	}
	if err := s.w.Append(rec); err != nil {
		return err
	}
	s.observeSeams(k.ID(), step)
	if s.degraded() {
		// An open seam breaker is evidence the node is in trouble;
		// buy durability per step while it lasts.
		if err := s.w.Sync(); err != nil {
			return err
		}
		mDegradedSyncs.Inc()
	}
	return nil
}

// recover opens the journal (truncating any torn tail), restores the
// last snapshot, and deterministically replays the journaled tail
// steps — verifying each replayed step is byte-identical to what the
// journal recorded, so configuration drift between runs is caught
// rather than silently diverging.
func (s *service) recover() error {
	w, recs, info, err := checkpoint.OpenAppend(s.cfg.Journal)
	if err != nil {
		return err
	}
	s.w = w
	if info.Truncated {
		s.tornTail = true
		fmt.Fprintf(s.stderr, "acsel-serve: journal has a torn tail; keeping %d records (%d bytes)\n",
			info.Records, info.ValidBytes)
	}
	if len(recs) == 0 {
		// Fresh journal: anchor it with a snapshot of the fresh runtime
		// so every journal starts with a restorable record.
		rec, err := rts.EncodeSnapshot(s.rt.Snapshot())
		if err != nil {
			return err
		}
		if err := s.w.Append(rec); err != nil {
			return err
		}
		return s.w.Sync()
	}

	lastSnap := -1
	for i, rec := range recs {
		if rec.Type == rts.RecordSnapshot {
			lastSnap = i
		}
	}
	if lastSnap < 0 {
		return fmt.Errorf("journal %s has no snapshot record", s.cfg.Journal)
	}
	snap, err := rts.DecodeSnapshot(recs[lastSnap])
	if err != nil {
		return err
	}
	if err := s.rt.Restore(snap); err != nil {
		return err
	}
	for _, kc := range snap.Kernels {
		if h, ok := s.rt.HealthFor(kc.Key); ok {
			s.prev[kc.Key] = h
		}
	}

	base := s.rt.NumSteps()
	for i, rec := range recs[lastSnap+1:] {
		want, err := rts.DecodeStep(rec)
		if err != nil {
			return err
		}
		k := s.app[(base+i)%len(s.app)]
		if want.Kernel != k.ID() {
			return fmt.Errorf("journal step %d names %s where the schedule runs %s (flags changed between runs?)",
				i, want.Kernel, k.ID())
		}
		got, err := s.rt.RunKernel(k)
		if err != nil {
			return fmt.Errorf("replaying step %d (%s): %w", i, want.Kernel, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("deterministic replay diverged from the journal at step %d (%s): got %+v, journal %+v",
				i, want.Kernel, got, want)
		}
		s.observeSeams(k.ID(), got)
		s.replayed++
	}
	s.recovered = true
	total := s.rt.NumSteps()
	s.epoch = total / len(s.app)
	s.pos = total % len(s.app)
	fmt.Fprintf(s.stderr, "acsel-serve: recovered from %s: snapshot with %d steps, %d replayed (epoch %d, position %d)\n",
		s.cfg.Journal, base, s.replayed, s.epoch, s.pos)
	return nil
}

// compact atomically rewrites the journal as a single snapshot record;
// later steps append to the compacted journal.
func (s *service) compact() error {
	rec, err := rts.EncodeSnapshot(s.rt.Snapshot())
	if err != nil {
		return err
	}
	return s.w.Compact(rec)
}

// observeSeams feeds the breakers from one executed step: the step's
// own sensor annotations (SMU), and the health-counter deltas it
// caused (P-state retries/failures, divergence demotions).
func (s *service) observeSeams(key string, step rts.Step) {
	h, ok := s.rt.HealthFor(key)
	if !ok {
		return
	}
	prev := s.prev[key]
	s.prev[key] = h
	s.feed(s.brSMU, errSMUSeam,
		step.Quarantined || step.SensorLost ||
			h.Quarantined > prev.Quarantined || h.Dropouts > prev.Dropouts)
	s.feed(s.brPState, errPStateSeam,
		h.ApplyRetries > prev.ApplyRetries || h.ApplyFailures > prev.ApplyFailures)
	s.feed(s.brKernel, errKernelSeam, h.Demotions > prev.Demotions)
}

// feed records one observation with the breaker. While open, Allow
// counts the rejected observation toward the cooldown instead — the
// breaker sits out its OpenCalls, then probes again half-open.
func (s *service) feed(b *supervise.Breaker, seamErr error, failed bool) {
	if !b.Allow() {
		return
	}
	if failed {
		b.Record(seamErr)
	} else {
		b.Record(nil)
	}
}

// degraded reports whether any seam breaker has left the closed state.
func (s *service) degraded() bool {
	return s.brSMU.State() != supervise.Closed ||
		s.brPState.State() != supervise.Closed ||
		s.brKernel.State() != supervise.Closed
}

// readyz reports readiness: 200 only while serving with every seam
// breaker closed. The body names the lifecycle state and each
// breaker's position either way.
func (s *service) readyz(w http.ResponseWriter, _ *http.Request) {
	state, _ := s.ready.Load().(string)
	degraded := s.degraded()
	if state != "serving" || degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "state: %s\ndegraded: %v\nbreaker smu: %s\nbreaker pstate: %s\nbreaker kernel: %s\n",
		state, degraded, s.brSMU.State(), s.brPState.State(), s.brKernel.State())
}

// writeSummary renders the run summary JSON (atomically, through
// trace.WriteFile: the crash test polls for this file, so it must
// never observe a half-written one).
func (s *service) writeSummary() error {
	if s.cfg.SummaryPath == "" {
		return nil
	}
	doc := runSummary{
		Bench:         s.cfg.Bench,
		Input:         s.cfg.Input,
		CapW:          s.cfg.CapW,
		Epochs:        s.epoch,
		Steps:         s.rt.NumSteps(),
		Recovered:     s.recovered,
		ReplayedSteps: s.replayed,
		TornTail:      s.tornTail,
		Summary:       s.rt.Summarize(),
	}
	return trace.WriteFile(s.cfg.SummaryPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}
