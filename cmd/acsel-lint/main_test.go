package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the CLI to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRunFindings(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module smoke\n\ngo 1.22\n",
		"pkg/pkg.go": `package pkg

import "math/rand"

func Jitter(x float64) bool {
	return x == rand.Float64()
}
`,
	})
	var out, errb strings.Builder
	code := run([]string{"-C", root, "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"[floatcmp]", "[globalrand]", "pkg/pkg.go:6:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errb.String(), "2 finding(s)") {
		t.Errorf("stderr missing finding count: %s", errb.String())
	}
}

func TestRunClean(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module smoke\n\ngo 1.22\n",
		"pkg/pkg.go": `package pkg

// Twice doubles x.
func Twice(x float64) float64 { return 2 * x }
`,
	})
	var out, errb strings.Builder
	if code := run([]string{"-C", root, "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("expected no output on a clean module, got:\n%s", out.String())
	}
}

func TestRunChecksFlagSelectsSubset(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module smoke\n\ngo 1.22\n",
		"pkg/pkg.go": `package pkg

import "math/rand"

func Jitter(x float64) bool {
	return x == rand.Float64()
}
`,
	})
	var out, errb strings.Builder
	if code := run([]string{"-C", root, "-checks", "globalrand", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if strings.Contains(out.String(), "[floatcmp]") {
		t.Errorf("-checks globalrand must not run floatcmp:\n%s", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"floatcmp", "globalrand", "errcheck", "locksleep"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestRunUnknownCheck(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-checks", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown check") {
		t.Errorf("stderr missing unknown-check error: %s", errb.String())
	}
}

func TestRunOutsideModule(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-C", t.TempDir()}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
}
