package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"acsel/internal/kernels"
	"acsel/internal/supervise"
)

// baseConfig is the shared test configuration: small training, a
// deterministic fault plan, no listener.
func baseConfig(dir, name string) config {
	return config{
		Bench: "LULESH", Input: "Large", CapW: 22,
		FaultPlan:       "pstate-flaky:3",
		Epochs:          3,
		CheckpointEvery: 2,
		TrainIterations: 2,
		MaxRestarts:     3,
		Journal:         filepath.Join(dir, name+".acsj"),
		SummaryPath:     filepath.Join(dir, name+".json"),
	}
}

func appKernelCount(t *testing.T, cfg config) int {
	for _, c := range kernels.Combos() {
		if c.Benchmark == cfg.Bench && c.Input == cfg.Input {
			return len(c.Kernels)
		}
	}
	t.Fatalf("unknown benchmark/input %s/%s", cfg.Bench, cfg.Input)
	return 0
}

func readSummary(t *testing.T, path string) runSummary {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	var doc runSummary
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("summary: %v", err)
	}
	return doc
}

// compareSummaries asserts the observable run state matches; the
// recovery fields (Recovered, ReplayedSteps, TornTail) legitimately
// differ between an interrupted and an uninterrupted run.
func compareSummaries(t *testing.T, want, got runSummary) {
	t.Helper()
	if got.Epochs != want.Epochs || got.Steps != want.Steps {
		t.Errorf("epochs/steps = %d/%d, want %d/%d", got.Epochs, got.Steps, want.Epochs, want.Steps)
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("summaries diverge:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
}

func TestServeRunsAndWritesSummary(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(dir, "run")
	cfg.Addr = "127.0.0.1:0" // exercise the healthz/readyz/metrics listener
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	sum := readSummary(t, cfg.SummaryPath)
	if sum.Recovered {
		t.Error("fresh run claims recovery")
	}
	if want := cfg.Epochs * appKernelCount(t, cfg); sum.Steps != want || sum.Epochs != cfg.Epochs {
		t.Errorf("ran %d steps over %d epochs, want %d over %d", sum.Steps, sum.Epochs, want, cfg.Epochs)
	}
	if sum.Summary.Health == nil {
		t.Error("serve runs with the watchdog armed; Health must be populated")
	}
}

func TestServeResumeAfterCleanExitMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	ref := baseConfig(dir, "ref")
	ref.Epochs = 6
	if err := run(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := readSummary(t, ref.SummaryPath)

	// Same run split across two processes: 3 epochs, clean exit, then
	// resume to 6.
	split := baseConfig(dir, "split")
	split.Epochs = 3
	if err := run(context.Background(), split, io.Discard); err != nil {
		t.Fatal(err)
	}
	split.Epochs = 6
	if err := run(context.Background(), split, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := readSummary(t, split.SummaryPath)
	if !got.Recovered {
		t.Fatal("resumed run did not recover from the journal")
	}
	compareSummaries(t, want, got)
}

func TestServeTornTailRecovery(t *testing.T) {
	dir := t.TempDir()

	ref := baseConfig(dir, "ref")
	ref.Epochs = 6
	if err := run(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := readSummary(t, ref.SummaryPath)

	torn := baseConfig(dir, "torn")
	torn.Epochs = 3
	if err := run(context.Background(), torn, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Maul the journal's tail: a torn final record must be dropped, not
	// fatal.
	f, err := os.OpenFile(torn.Journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	torn.Epochs = 6
	if err := run(context.Background(), torn, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := readSummary(t, torn.SummaryPath)
	if !got.TornTail {
		t.Error("recovery did not report the torn tail")
	}
	if !got.Recovered {
		t.Fatal("torn-tail run did not recover")
	}
	compareSummaries(t, want, got)
}

func TestServeSigtermSnapshotsAndResumes(t *testing.T) {
	dir := t.TempDir()

	ref := baseConfig(dir, "ref")
	ref.Epochs = 5
	if err := run(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := readSummary(t, ref.SummaryPath)

	// A cancelled context is the in-process shape of SIGTERM: the run
	// must exit cleanly, snapshot, and resume where it left off.
	stop := baseConfig(dir, "stopped")
	stop.Epochs = 0 // until signalled
	stop.EpochDelay = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer cancel()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		deadline := time.After(30 * time.Second)
		for {
			select {
			case <-deadline:
				return
			case <-tick.C:
				if _, err := os.Stat(stop.Journal); err == nil {
					return
				}
			}
		}
	}()
	if err := run(ctx, stop, io.Discard); err != nil {
		t.Fatalf("signalled run must exit cleanly, got %v", err)
	}
	stop.Epochs = 5
	stop.EpochDelay = 0
	if err := run(context.Background(), stop, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := readSummary(t, stop.SummaryPath)
	compareSummaries(t, want, got)
}

// TestServeEpochDeadlineRestartsThenGivesUp: an epoch that outlives
// -epoch-deadline fails with a restartable error; once the restart
// budget is spent, run reports it, naming the watchdog, and every
// expiry is counted.
func TestServeEpochDeadlineRestartsThenGivesUp(t *testing.T) {
	cfg := baseConfig(t.TempDir(), "deadline")
	cfg.EpochDeadline = time.Nanosecond
	cfg.MaxRestarts = 1
	before := mWatchdogTimeouts.With("epoch").Value()
	err := run(context.Background(), cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exhausted 1 restarts") ||
		!strings.Contains(err.Error(), "epoch watchdog: deadline 1ns exceeded") {
		t.Fatalf("err = %v, want the exhausted-restarts error naming the epoch watchdog", err)
	}
	if got := mWatchdogTimeouts.With("epoch").Value() - before; got != 2 {
		t.Errorf("epoch watchdog timeouts rose by %v, want 2 (first run and one restart)", got)
	}
}

func TestServeRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		mut  func(*config)
		want string
	}{
		{"missing journal", func(c *config) { c.Journal = "" }, "-journal is required"},
		{"negative epochs", func(c *config) { c.Epochs = -1 }, "non-negative"},
		{"bad fault plan", func(c *config) { c.FaultPlan = "no-such-scenario" }, "scenario"},
		{"unknown bench", func(c *config) { c.Bench = "NotABenchmark" }, "unknown benchmark"},
		{"negative z", func(c *config) { c.Z = -1 }, "variance-aware z"},
	}
	for _, tc := range cases {
		cfg := baseConfig(dir, "bad")
		tc.mut(&cfg)
		err := run(context.Background(), cfg, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestReadyzReflectsLifecycleAndBreakers(t *testing.T) {
	s := &service{
		brSMU:    supervise.NewBreaker(supervise.BreakerOptions{Name: "t-smu", FailureThreshold: 2}),
		brPState: supervise.NewBreaker(supervise.BreakerOptions{Name: "t-pstate"}),
		brKernel: supervise.NewBreaker(supervise.BreakerOptions{Name: "t-kernel"}),
	}
	s.ready.Store("starting")
	rec := httptest.NewRecorder()
	s.readyz(rec, nil)
	if rec.Code != 503 {
		t.Errorf("starting readyz = %d, want 503", rec.Code)
	}

	s.ready.Store("serving")
	rec = httptest.NewRecorder()
	s.readyz(rec, nil)
	if rec.Code != 200 {
		t.Errorf("serving readyz = %d, want 200", rec.Code)
	}

	// Trip the SMU breaker: still serving, but degraded.
	s.brSMU.Record(errSMUSeam)
	s.brSMU.Record(errSMUSeam)
	rec = httptest.NewRecorder()
	s.readyz(rec, nil)
	if rec.Code != 503 {
		t.Errorf("degraded readyz = %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "breaker smu: open") {
		t.Errorf("degraded body does not name the open breaker:\n%s", body)
	}
}

// TestReadyzFollowsSeamBreakersEndToEnd drives the service's epochs step
// by step and reads /readyz after every step. Under sensor dropouts the
// SMU breaker must open (503 naming it) on some step, and every step
// that ends degraded must force one journal sync; a clean run never
// leaves 200.
func TestReadyzFollowsSeamBreakersEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, plan string
	}{{"clean", ""}, {"dropout", "sensor-dropout:3"}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config{
				Bench: "LULESH", Input: "Large", CapW: 24,
				FaultPlan: tc.plan, Epochs: 8, TrainIterations: 1,
				Journal: filepath.Join(dir, tc.name+".acsj"),
			}
			s, err := newService(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.recover(); err != nil {
				t.Fatal(err)
			}
			defer s.w.Close() //lint:ignore errcheck test journal
			s.ready.Store("serving")

			syncs := mDegradedSyncs.Value()
			steps, degraded, smuOpen := 0, 0, false
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				for s.pos = 0; s.pos < len(s.app); s.pos++ {
					if err := s.step(); err != nil {
						t.Fatal(err)
					}
					steps++
					rec := httptest.NewRecorder()
					s.readyz(rec, nil)
					switch rec.Code {
					case 200:
					case 503:
						degraded++
						smuOpen = smuOpen || strings.Contains(rec.Body.String(), "breaker smu: open")
					default:
						t.Fatalf("step %d: readyz = %d", steps, rec.Code)
					}
				}
			}
			if got := mDegradedSyncs.Value() - syncs; got != float64(degraded) {
				t.Errorf("degraded syncs rose by %v over %d degraded steps", got, degraded)
			}
			t.Logf("%d of %d steps degraded", degraded, steps)
			if tc.plan == "" {
				if degraded != 0 {
					t.Errorf("clean run left 200 on %d of %d steps", degraded, steps)
				}
			} else if !smuOpen {
				t.Errorf("no step under %s answered 503 with the SMU breaker open (%d of %d degraded)", tc.plan, degraded, steps)
			}
		})
	}
}
