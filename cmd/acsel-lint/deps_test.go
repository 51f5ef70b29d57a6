package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLinksOnlyLintAndTrace: the linter's repository dependencies are
// the lint framework and the file-writing leaf. An import that reaches
// the model (core, eval, profiler, …) would link it into the linter and
// register its metric families at start.
func TestLinksOnlyLintAndTrace(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	allowed := map[string]bool{
		"acsel/cmd/acsel-lint": true,
		"acsel/internal/lint":  true,
		"acsel/internal/trace": true,
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "acsel/") && !allowed[pkg] {
			t.Errorf("acsel-lint depends on %s", pkg)
		}
	}
}
