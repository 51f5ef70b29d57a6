package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestBenchSingleExperiment(t *testing.T) {
	if err := run("table2", 1, 5, "", "all", 1); err != nil {
		t.Fatal(err)
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	if err := run("table99", 1, 5, "", "all", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBenchChaosExperiment(t *testing.T) {
	if err := run("chaos", 1, 5, "", "sensor-stuck", 7); err != nil {
		t.Fatal(err)
	}
	if err := run("chaos", 1, 5, "", "not-a-scenario", 1); err == nil {
		t.Error("unknown chaos scenario accepted")
	}
}

func TestBenchCSVExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	if err := run("accuracy", 1, 5, dir, "all", 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"profiles.csv", "cases.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty", f)
		}
	}
}

func TestBenchSuiteAndWorstExperiments(t *testing.T) {
	if err := run("suite", 1, 5, "", "all", 1); err != nil {
		t.Fatal(err)
	}
	if err := run("worst", 1, 5, "", "all", 1); err != nil {
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
			if err := run("table2", tc.iters, tc.k, "", "all", 1); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
