package main

import (
	"os"
	"path/filepath"
	"testing"

	"acsel/internal/core"
)

func TestTrainWritesLoadableModel(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "model.json")
	profiles := filepath.Join(dir, "profiles.json")
	if err := run(out, "LULESH", 4, 1, false, profiles, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 4 {
		t.Errorf("k = %d", m.K)
	}
	if fi, err := os.Stat(profiles); err != nil || fi.Size() == 0 {
		t.Error("profiles dump missing or empty")
	}
}

func TestTrainRejectsUnknownHoldout(t *testing.T) {
	dir := t.TempDir()
	if err := run(filepath.Join(dir, "m.json"), "NotABenchmark", 5, 1, false, "", false); err == nil {
		t.Error("unknown holdout accepted")
	}
}

func TestTrainLogTargets(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "model.json")
	if err := run(out, "", 5, 1, true, "", true); err != nil {
		t.Fatal(err)
	}
}

// TestTrainRejectsOutOfRangeKAndIterations pins that the CLI refuses
// a cluster count or iteration count below 1 instead of letting core's
// zero-value defaults silently replace it, and writes no model.
func TestTrainRejectsOutOfRangeKAndIterations(t *testing.T) {
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
			out := filepath.Join(t.TempDir(), "m.json")
			if err := run(out, "", tc.k, tc.iters, false, "", false); err == nil {
				t.Fatal("accepted")
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("model file written despite the error (stat: %v)", err)
			}
		})
	}
}
