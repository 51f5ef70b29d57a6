// The crash test proper: a child acsel-serve process is SIGKILLed in
// the middle of an epoch and restarted; the resumed run must produce a
// summary identical to an uninterrupted run of the same configuration
// and fault plan. The child is this test binary re-executed — TestMain
// diverts to the real run() when the config environment variable is
// set — so the test exercises the same code a production kill would.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"acsel/internal/checkpoint"
	"acsel/internal/rts"
)

const childEnv = "ACSEL_SERVE_CHILD_CFG"

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

// runChild executes a service run in a child process to completion.
func runChild(t *testing.T, cfg config) {
	t.Helper()
	var out bytes.Buffer
	cmd := childCmd(t, cfg, &out)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out.String())
		}
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill() //lint:ignore errcheck already failing the test
		<-done
		t.Fatalf("child timed out\n%s", out.String())
	}
}

// waitForSteps polls the journal until it holds at least n step
// records (reads are tolerant, so racing the writer is safe).
func waitForSteps(t *testing.T, path string, n int) {
	t.Helper()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %d journaled steps in %s", n, path)
		case <-tick.C:
			recs, _, err := checkpoint.ReadFile(path)
			if err != nil {
				continue
			}
			steps := 0
			for _, rec := range recs {
				if rec.Type == rts.RecordStep {
					steps++
				}
			}
			if steps >= n {
				return
			}
		}
	}
}

// preserveOnFailure copies the test's journals and summaries into
// ACSEL_CRASH_ARTIFACT_DIR (CI's upload directory) when the test
// fails.
func preserveOnFailure(t *testing.T, dir string) {
	t.Cleanup(func() {
		dst := os.Getenv("ACSEL_CRASH_ARTIFACT_DIR")
		if dst == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Logf("artifact scan: %v", err)
			return
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				continue
			}
			if err := os.WriteFile(filepath.Join(dst, t.Name()+"-"+e.Name()), data, 0o644); err != nil {
				t.Logf("artifact copy: %v", err)
			}
		}
		t.Logf("crash artifacts preserved in %s", dst)
	})
}

func TestCrashKillMidEpochRecoversEquivalently(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	preserveOnFailure(t, dir)

	base := config{
		Bench: "LULESH", Input: "Large", CapW: 22,
		FaultPlan:       "pstate-flaky:3",
		Epochs:          8,
		CheckpointEvery: 3,
		TrainIterations: 2,
		MaxRestarts:     3,
	}

	// Uninterrupted reference run.
	ref := base
	ref.Journal = filepath.Join(dir, "ref.acsj")
	ref.SummaryPath = filepath.Join(dir, "ref.json")
	runChild(t, ref)
	want := readSummary(t, ref.SummaryPath)
	if want.Recovered {
		t.Fatal("reference run claims recovery")
	}

	// Victim run: paced so SIGKILL lands mid-flight, killed once the
	// journal shows it is inside its second epoch.
	victim := base
	victim.Journal = filepath.Join(dir, "victim.acsj")
	victim.SummaryPath = filepath.Join(dir, "victim.json")
	victim.EpochDelay = 25 * time.Millisecond
	var out bytes.Buffer
	cmd := childCmd(t, victim, &out)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForSteps(t, victim.Journal, appKernelCount(t, victim)+2)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Log("child exited before the kill landed; resume still must be equivalent")
	}

	// Resume to completion and compare against the uninterrupted run.
	resume := victim
	resume.EpochDelay = 0
	runChild(t, resume)
	got := readSummary(t, resume.SummaryPath)
	if !got.Recovered {
		t.Fatal("resumed run did not recover from the journal")
	}
	compareSummaries(t, want, got)
}
