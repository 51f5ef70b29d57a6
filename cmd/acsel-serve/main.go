// Command acsel-serve runs the adaptive runtime as a supervised,
// crash-safe long-running service: it trains offline (leave-bench-out,
// like acsel-app), then drives the application's kernels epoch after
// epoch under a panic-isolating supervisor with an epoch watchdog,
// journaling every executed step to an append-only checkpoint journal
// and compacting it to an atomic snapshot on an epoch interval and on
// SIGTERM. On start it recovers from the journal: restore the last
// snapshot, then deterministically replay the journaled tail steps and
// verify each replayed step is identical to what the journal recorded.
// Circuit breakers on the SMU, P-state, and kernel-divergence seams
// observe step outcomes; an open breaker flips /readyz to degraded and
// forces per-step journal syncs, but never alters the kernel schedule
// — recovery equivalence depends on the schedule being deterministic.
//
// Usage:
//
//	acsel-serve -journal run.acsj -bench LULESH -input Large -cap 24 -epochs 8
//	acsel-serve -journal run.acsj -epochs 0 -addr :9090        # until SIGTERM
//	acsel-serve -journal run.acsj -fault-plan pstate-flaky:3 -summary out.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Bench, "bench", "LULESH", "application benchmark to run")
	flag.StringVar(&cfg.Input, "input", "Large", "input size")
	flag.Float64Var(&cfg.CapW, "cap", 24, "node power cap (watts)")
	flag.BoolVar(&cfg.FL, "fl", false, "enable the feedback frequency limiter (Model+FL)")
	flag.Float64Var(&cfg.Z, "z", 0, "variance-aware selection margin (0 disables)")
	flag.StringVar(&cfg.FaultPlan, "fault-plan", "", "fault scenario to inject, as scenario[:seed] (empty = clean run)")
	flag.StringVar(&cfg.Journal, "journal", "", "checkpoint journal path (required)")
	flag.IntVar(&cfg.Epochs, "epochs", 8, "epochs to run before a clean exit (0 = run until signalled)")
	flag.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 4, "epochs between snapshot compactions (0 disables periodic compaction)")
	flag.DurationVar(&cfg.EpochDelay, "epoch-delay", 0, "pause between epochs (a real service paces itself)")
	flag.DurationVar(&cfg.EpochDeadline, "epoch-deadline", 0, "watchdog deadline per epoch; a stalled epoch restarts the worker (0 disables)")
	flag.StringVar(&cfg.Addr, "addr", "", "serve /healthz, /readyz, /metrics, and /debug/pprof on this address")
	flag.StringVar(&cfg.Fleet, "fleet", "", "join the fleet coordinator at this base URL (requires -addr; serves /fleet/report and /fleet/cap)")
	flag.StringVar(&cfg.NodeName, "node-name", "", "fleet member name (default: the bench/input pair)")
	flag.DurationVar(&cfg.HeartbeatEvery, "heartbeat", time.Second, "fleet lease-renewal period")
	flag.DurationVar(&cfg.OrphanAfter, "orphan-after", 0, "drop to the floor cap after this long without coordinator contact (0 = 5x heartbeat)")
	flag.StringVar(&cfg.SummaryPath, "summary", "", "write a JSON run summary to this file at clean exit")
	flag.IntVar(&cfg.TrainIterations, "train-iterations", 0, "profiling iterations per configuration during training (0 = paper default)")
	flag.StringVar(&cfg.ModelCache, "model-cache", "", "optional directory for the content-addressed trained-model cache")
	flag.IntVar(&cfg.MaxRestarts, "max-restarts", 5, "consecutive worker restarts before giving up (0 = unlimited)")
	flag.BoolVar(&cfg.Query, "query", false, "serve the selection query API (POST /v1/select, /v1/select/batch, GET+POST /v1/models) on -addr")
	flag.IntVar(&cfg.QueryInFlight, "query-max-inflight", 0, "selection queries computed at once before admission control sheds with 429 (0 = default)")
	flag.IntVar(&cfg.QueryCache, "query-cache", 0, "selection LRU cache entries (0 = default, negative disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-serve:", err)
		os.Exit(1)
	}
}

// config is the full service configuration. It is JSON-serializable so
// the crash test can hand an identical configuration to a child
// process.
type config struct {
	Bench           string
	Input           string
	CapW            float64
	FL              bool
	Z               float64
	FaultPlan       string
	Journal         string
	Epochs          int
	CheckpointEvery int
	EpochDelay      time.Duration
	EpochDeadline   time.Duration
	Addr            string
	Fleet           string
	NodeName        string
	HeartbeatEvery  time.Duration
	OrphanAfter     time.Duration
	SummaryPath     string
	TrainIterations int
	ModelCache      string
	MaxRestarts     int
	Query           bool
	QueryInFlight   int
	QueryCache      int
}
