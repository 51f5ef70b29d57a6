// Command acsel-fleet runs the fleet power-budget coordinator: the
// top of the paper's machine hierarchy (§I) as a long-running,
// supervised network service. Agents (acsel-serve -fleet) join by
// heartbeating; each rebalance round the coordinator pulls every
// member's demand and predicted utility curve, divides the fleet
// budget with the internal/hierarchy dividers, and pushes per-node
// caps transactionally. A node that stops heartbeating is evicted on
// lease expiry and its watts redistributed; with -journal the
// coordinator checkpoints every round's assignment and a restarted
// coordinator resumes where it left off.
//
// Usage:
//
//	acsel-fleet -addr :9000 -budget 60 -policy water-fill
//	acsel-fleet -addr :9000 -budget 60 -journal fleet.acsj -rebalance-every 2s
//	acsel-fleet -addr :9000 -budget 45 -fault-plan net-flaky:7   # chaos drill
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acsel/internal/fault"
	"acsel/internal/fleet"
	"acsel/internal/hierarchy"
	"acsel/internal/metrics"
	"acsel/internal/supervise"
	"acsel/internal/trace"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", ":9000", "serve the fleet protocol, /metrics, and /debug/pprof on this address")
	flag.Float64Var(&cfg.BudgetW, "budget", 60, "fleet-wide power budget (watts)")
	flag.StringVar(&cfg.Policy, "policy", "water-fill", "budget divider: uniform, demand-proportional, or water-fill")
	flag.DurationVar(&cfg.RebalanceEvery, "rebalance-every", time.Second, "period between rebalance rounds")
	flag.DurationVar(&cfg.LeaseTTL, "lease", 3*time.Second, "membership lease; a silent node is evicted after this long")
	flag.StringVar(&cfg.Journal, "journal", "", "assignment checkpoint journal (restart resumes from it)")
	flag.DurationVar(&cfg.PullTimeout, "pull-timeout", 2*time.Second, "per-attempt timeout for report pulls and cap pushes")
	flag.IntVar(&cfg.PullRetries, "pull-retries", 2, "retries beyond the first attempt per RPC")
	flag.StringVar(&cfg.FaultPlan, "fault-plan", "", "network fault scenario, as scenario[:seed] (empty = clean)")
	flag.IntVar(&cfg.Rounds, "rounds", 0, "rebalance rounds before a clean exit (0 = run until signalled)")
	flag.StringVar(&cfg.AddrFile, "addr-file", "", "write the bound listen address to this file once serving")
	flag.IntVar(&cfg.MaxRestarts, "max-restarts", 5, "consecutive rebalance-loop restarts before giving up (0 = unlimited)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-fleet:", err)
		os.Exit(1)
	}
}

// config is the full coordinator configuration, JSON-serializable so
// the crash test can hand an identical configuration to a child
// process.
type config struct {
	Addr           string
	BudgetW        float64
	Policy         string
	RebalanceEvery time.Duration
	LeaseTTL       time.Duration
	Journal        string
	PullTimeout    time.Duration
	PullRetries    int
	FaultPlan      string
	Rounds         int
	AddrFile       string
	MaxRestarts    int
}

// run builds the coordinator (resuming from the journal if one
// exists), serves the fleet protocol, and drives the supervised
// rebalance loop until the round budget is spent or ctx is signalled.
func run(ctx context.Context, cfg config, stderr io.Writer) error {
	if cfg.Addr == "" {
		return errors.New("-addr is required (agents must reach the coordinator)")
	}
	if cfg.Rounds < 0 {
		return errors.New("-rounds must be non-negative")
	}
	policy, err := hierarchy.ParsePolicy(cfg.Policy)
	if err != nil {
		return err
	}
	var inj *fault.Injector
	if cfg.FaultPlan != "" {
		if inj, err = fault.ParsePlan(cfg.FaultPlan); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "acsel-fleet: injecting %s on the network seam\n", inj)
	}

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		BudgetW:  cfg.BudgetW,
		Policy:   policy,
		LeaseTTL: cfg.LeaseTTL,
		Journal:  cfg.Journal,
		Client: &fleet.Client{
			Faults:  inj,
			Retries: cfg.PullRetries,
			Timeout: cfg.PullTimeout,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer coord.Close() //lint:ignore errcheck every round already synced its checkpoint

	mux := metrics.Default.NewMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	coord.Register(mux)
	addr, stopHTTP, err := metrics.ListenAndServe(cfg.Addr, mux)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopHTTP(); err != nil {
			fmt.Fprintln(stderr, "acsel-fleet: http shutdown:", err)
		}
	}()
	if cfg.AddrFile != "" {
		// The process test polls for this file; trace.WriteFile renames
		// it into place whole, so a partial address is never read.
		if err := trace.WriteFile(cfg.AddrFile, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, addr)
			return err
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "acsel-fleet: serving http://%s (budget %.1f W, %s, lease %v)\n",
		addr, cfg.BudgetW, policy, cfg.LeaseTTL)

	// The rebalance loop runs under a panic-isolating supervisor: a
	// bug in one round must not take the membership server down with
	// it.
	sup := supervise.New(supervise.Options{
		Name:        "fleet-rebalance",
		MaxRestarts: cfg.MaxRestarts,
		OnRestart: func(attempt int, err error, backoff time.Duration) {
			fmt.Fprintf(stderr, "acsel-fleet: rebalance loop restart %d after %v (backoff %v)\n",
				attempt, err, backoff)
		},
	})
	start := coord.Round()
	err = sup.Run(ctx, func(wctx context.Context) error {
		t := time.NewTicker(cfg.RebalanceEvery)
		defer t.Stop()
		for cfg.Rounds == 0 || coord.Round()-start < cfg.Rounds {
			select {
			case <-wctx.Done():
				return wctx.Err()
			case <-t.C:
			}
			res, rerr := coord.RebalanceOnce(wctx)
			if rerr != nil {
				fmt.Fprintf(stderr, "acsel-fleet: %v\n", rerr)
				continue
			}
			sup.ResetBackoff()
			fmt.Fprintf(stderr, "acsel-fleet: round %d: %d cap(s) pushed, %.1f/%.1f W assigned, %d evicted, %d pull / %d push failure(s)\n",
				res.Round, len(res.Caps), res.AssignedTotalW, cfg.BudgetW,
				len(res.Evicted), res.PullFailures, res.PushFailures)
		}
		return nil
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	st := coord.Status()
	fmt.Fprintf(stderr, "acsel-fleet: done: %d rounds, %d member(s), %.1f/%.1f W assigned\n",
		st.Round, len(st.Members), st.AssignedTotalW, st.BudgetW)
	return nil
}
