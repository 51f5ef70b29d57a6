// The fleet process test: a child acsel-fleet coordinator serves three
// in-process loopback agents. The test asserts the fleet converges to
// a full-budget assignment, survives a SIGKILL + restart of the
// coordinator by resuming from its journal, and redistributes a killed
// agent's watts within two rebalance rounds — with the total
// assignment never exceeding the budget at any observed point.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"acsel/internal/core"
	"acsel/internal/fleet"
	"acsel/internal/hierarchy"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/rts"
)

const childEnv = "ACSEL_FLEET_CHILD_CFG"

func TestMain(m *testing.M) {
	if cfgJSON := os.Getenv(childEnv); cfgJSON != "" {
		os.Exit(childMain(cfgJSON))
	}
	os.Exit(m.Run())
}

func childMain(cfgJSON string) int {
	var cfg config
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "child config:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	return 0
}

func childCmd(t *testing.T, cfg config, out io.Writer) *exec.Cmd {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+string(data))
	cmd.Stdout, cmd.Stderr = out, out
	return cmd
}

var (
	setupOnce sync.Once
	setupErr  error
	gModel    *core.Model
	gApps     [][]kernels.Kernel
)

func sharedModel(t *testing.T) (*core.Model, [][]kernels.Kernel) {
	t.Helper()
	setupOnce.Do(func() {
		var training []kernels.Kernel
		var comd, lulesh []kernels.Kernel
		for _, c := range kernels.Combos() {
			switch {
			case c.Benchmark == "CoMD" && c.Input == "Large":
				comd = c.Kernels
			case c.Benchmark == "LULESH" && c.Input == "Small":
				lulesh = c.Kernels
			case c.Benchmark == "SMC" || c.Benchmark == "LU":
				training = append(training, c.Kernels...)
			}
		}
		p := profiler.New()
		opts := core.DefaultTrainOptions()
		opts.Iterations = 1
		opts.K = 4
		profs, err := core.Characterize(p, training, opts)
		if err != nil {
			setupErr = err
			return
		}
		gModel, setupErr = core.Train(p.Space, profs, opts)
		gApps = [][]kernels.Kernel{comd, lulesh}
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return gModel, gApps
}

// liveAgent is one in-process fleet member heartbeating a child
// coordinator.
type liveAgent struct {
	agent  *fleet.Agent
	rt     *rts.Runtime
	srv    *httptest.Server
	cancel context.CancelFunc
}

func startAgent(t *testing.T, name string, app []kernels.Kernel, coordURL string) *liveAgent {
	t.Helper()
	model, _ := sharedModel(t)
	rt, err := rts.New(model, rts.Options{CapW: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs each, one per sample configuration, adapt every kernel,
	// so the agent reports a utility curve from its first round on.
	for run := 0; run < 2; run++ {
		for _, k := range app {
			if _, err := rt.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	agent, err := fleet.NewAgent(name, rt, app, fleet.AgentOptions{
		Coordinator:    coordURL,
		HeartbeatEvery: 100 * time.Millisecond,
		OrphanAfter:    2 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	agent.Register(mux)
	srv := httptest.NewServer(mux)
	rep, err := (&fleet.Client{}).Report(context.Background(), srv.URL, "")
	if err != nil {
		srv.Close()
		t.Fatalf("report %s: %v", name, err)
	}
	if len(rep.Breakpoints) == 0 {
		srv.Close()
		t.Fatalf("%s serves no utility curve: no kernel has adapted", name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		if err := agent.Run(ctx, srv.URL); err != nil {
			t.Logf("agent %s: %v", name, err)
		}
	}()
	la := &liveAgent{agent: agent, rt: rt, srv: srv, cancel: cancel}
	t.Cleanup(func() { la.stop() })
	return la
}

func (la *liveAgent) stop() {
	la.cancel()
	la.srv.Close()
}

// reservePort grabs a free loopback port and releases it, so both
// coordinator incarnations can bind the same address.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// pollStatus polls GET /fleet/members until pred accepts the status,
// asserting the budget invariant on every observation along the way.
func pollStatus(t *testing.T, coordURL string, budget float64, what string, pred func(fleet.Status) bool) fleet.Status {
	t.Helper()
	deadline := time.After(time.Minute)
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-tick.C:
		}
		resp, err := http.Get(coordURL + fleet.PathMembers)
		if err != nil {
			continue // coordinator down (e.g. between kill and restart)
		}
		var st fleet.Status
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if derr != nil {
			continue
		}
		if st.AssignedTotalW > budget+1e-6 {
			t.Fatalf("observed %v W assigned, over the %v W budget (while waiting for %s)",
				st.AssignedTotalW, budget, what)
		}
		if pred(st) {
			return st
		}
	}
}

func TestFleetConvergesSurvivesCrashAndEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet test")
	}
	dir := t.TempDir()
	addr := reservePort(t)
	coordURL := "http://" + addr
	const budget = 60.0

	cfg := config{
		Addr:           addr,
		BudgetW:        budget,
		Policy:         "water-fill",
		RebalanceEvery: 150 * time.Millisecond,
		LeaseTTL:       time.Second,
		Journal:        filepath.Join(dir, "fleet.acsj"),
		PullTimeout:    2 * time.Second,
		PullRetries:    2,
		AddrFile:       filepath.Join(dir, "addr"),
		MaxRestarts:    3,
	}

	var out bytes.Buffer
	cmd := childCmd(t, cfg, &out)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Signal(syscall.SIGTERM) //lint:ignore errcheck best-effort shutdown
			cmd.Wait()                          //lint:ignore errcheck best-effort shutdown
		}
		if t.Failed() {
			t.Logf("coordinator output:\n%s", out.String())
		}
	}()

	_, apps := sharedModel(t)
	agents := []*liveAgent{
		startAgent(t, "alpha", apps[0], coordURL),
		startAgent(t, "beta", apps[1], coordURL),
		startAgent(t, "gamma", apps[0], coordURL),
	}

	// Phase 1: the fleet converges to a full-budget assignment. A member
	// that joined after the last round has no cap yet, so the budget can
	// be fully assigned to the other two: wait until every member holds
	// one.
	st := pollStatus(t, coordURL, budget, "3 members at full budget", func(st fleet.Status) bool {
		if len(st.Members) != 3 || math.Abs(st.AssignedTotalW-budget) >= 1e-6 {
			return false
		}
		for _, m := range st.Members {
			if m.AssignedW <= 0 {
				return false
			}
		}
		return true
	})
	for _, m := range st.Members {
		if m.AssignedW < hierarchy.MinNodeCapW-1e-9 {
			t.Fatalf("%s assigned %v W, below the floor", m.Name, m.AssignedW)
		}
	}
	for _, a := range agents {
		if c := a.rt.Cap(); c < hierarchy.MinNodeCapW-1e-9 {
			t.Fatalf("agent %s runs at %v W, below the floor", a.agent.Name(), c)
		}
	}

	// Phase 2: SIGKILL the coordinator; its successor resumes from the
	// journal and keeps the same fleet at full budget.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	cmd.Wait() //lint:ignore errcheck SIGKILL makes a nonzero exit certain
	cmd = childCmd(t, cfg, &out)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed = false
	st = pollStatus(t, coordURL, budget, "recovered coordinator at full budget", func(st fleet.Status) bool {
		return st.Recovered && len(st.Members) == 3 && math.Abs(st.AssignedTotalW-budget) < 1e-6
	})

	// Phase 3: kill one agent; its lease expires and its watts are
	// redistributed across the survivors within two rebalance rounds of
	// the eviction.
	agents[2].stop()
	st = pollStatus(t, coordURL, budget, "eviction of gamma", func(st fleet.Status) bool {
		return len(st.Members) == 2
	})
	evictionRound := st.Round
	st = pollStatus(t, coordURL, budget, "redistribution after eviction", func(st fleet.Status) bool {
		return st.Round >= evictionRound+2
	})
	if len(st.Members) != 2 {
		t.Fatalf("%d members two rounds after eviction, want 2", len(st.Members))
	}
	if math.Abs(st.AssignedTotalW-budget) > 1e-6 {
		t.Fatalf("two rounds after eviction the survivors hold %v W, want the full %v W redistributed",
			st.AssignedTotalW, budget)
	}
	for _, m := range st.Members {
		if m.Name == "gamma" {
			t.Fatal("evicted member still on the books")
		}
	}

	// Clean shutdown.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	killed = true
	if err := cmd.Wait(); err != nil {
		t.Fatalf("coordinator exit after SIGTERM: %v\n%s", err, out.String())
	}
}
