package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchSingleExperiment(t *testing.T) {
	if err := run(io.Discard, "table2", 1, 5, "", "all", 1); err != nil {
		t.Fatal(err)
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "table99", 1, 5, "", "all", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestBenchChaosExperiment checks the error path; a successful chaos
// run is pinned byte for byte by TestBenchGoldenStdout.
func TestBenchChaosExperiment(t *testing.T) {
	if err := run(io.Discard, "chaos", 1, 5, "", "not-a-scenario", 1); err == nil {
		t.Error("unknown chaos scenario accepted")
	}
}

// TestBenchGoldenStdout pins the reproduction's headline numbers across
// commits: stdout must equal, byte for byte, the goldens written by
//
//	go run ./cmd/acsel-bench -exp table3 > cmd/acsel-bench/testdata/table3.golden
//	go run ./cmd/acsel-bench -exp chaos -chaos-scenario sensor-stuck -chaos-seed 7 \
//		> cmd/acsel-bench/testdata/chaos-sensor-stuck.golden
//	go run ./cmd/acsel-bench -exp chaos -chaos-scenario all -chaos-seed 7 \
//		> cmd/acsel-bench/testdata/chaos-all.golden
//	go run ./cmd/acsel-bench -exp all > cmd/acsel-bench/testdata/all.golden
//
// Any change to a noise stream, the training pipeline or the report
// format shows up here. Regenerate a golden only for a change that
// means to move the results, and say so. The goldens come from
// linux/amd64; architectures where Go fuses multiply-adds may differ
// in the last printed digit.
func TestBenchGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		name, golden, exp, scenario string
		seed                        int64
	}{
		{"table3", "table3.golden", "table3", "all", 1},
		{"chaos", "chaos-sensor-stuck.golden", "chaos", "sensor-stuck", 7},
		{"chaos-all", "chaos-all.golden", "chaos", "all", 7},
		// Every experiment but chaos, the command's default run.
		{"all", "all.golden", "all", "all", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			// Iterations and k are the command's defaults.
			if err := run(&got, tc.exp, 3, 5, "", tc.scenario, tc.seed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}

func TestBenchCSVExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	if err := run(io.Discard, "accuracy", 1, 5, dir, "all", 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"profiles.csv", "cases.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty", f)
		}
	}
}

func TestBenchSuiteAndWorstExperiments(t *testing.T) {
	if err := run(io.Discard, "suite", 1, 5, "", "all", 1); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "worst", 1, 5, "", "all", 1); err != nil {
		t.Fatal(err)
	}
}

// TestBenchRejectsOutOfRangeKAndIterations pins that the CLI refuses
// a cluster count or iteration count below 1 instead of letting core's
// zero-value defaults silently replace it.
func TestBenchRejectsOutOfRangeKAndIterations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		k, iters int
	}{
		{"k=0", 0, 1},
		{"k=-3", -3, 1},
		{"iterations=0", 5, 0},
		{"iterations=-1", 5, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(io.Discard, "table2", tc.iters, tc.k, "", "all", 1); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
