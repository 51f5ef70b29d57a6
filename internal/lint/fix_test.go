package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// fixtureModule builds a minimal module in a temp dir and returns its
// root.
func fixtureModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	writeFile(t, root, "go.mod", "module sandbox\n\ngo 1.22\n")
	for rel, content := range files {
		writeFile(t, root, rel, content)
	}
	return root
}

const fixableSrc = `package app

import "os"

func cleanup(path string) {
	os.Remove(path)
	os.Remove(path + ".bak")
}
`

// TestApplyFixesAndIdempotency runs the suite over a module with two
// fixable errcheck findings, applies the fixes, and verifies (a) the
// findings are gone, (b) the output is gofmt-clean, and (c) a second
// fix pass changes nothing — the property `make lint-fix-check`
// enforces in CI.
func TestApplyFixesAndIdempotency(t *testing.T) {
	root := fixtureModule(t, map[string]string{"app/app.go": fixableSrc})

	diags, err := Run(root, nil, []*Analyzer{AnalyzerErrCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("seed findings = %d, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			t.Fatalf("finding carries no suggested fix: %v", d)
		}
	}

	res, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Skipped != 0 || len(res.ChangedFiles) != 1 {
		t.Fatalf("fix result = %+v, want 2 applied in 1 file", res)
	}

	fixed, err := os.ReadFile(filepath.Join(root, "app/app.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := `package app

import "os"

func cleanup(path string) {
	_ = os.Remove(path)
	_ = os.Remove(path + ".bak")
}
`
	if string(fixed) != want {
		t.Fatalf("fixed source:\n%s\nwant:\n%s", fixed, want)
	}

	// Idempotency: the fixed tree has no findings, so a second -fix run
	// has nothing to apply and the file bytes must not move.
	diags, err = Run(root, nil, []*Analyzer{AnalyzerErrCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("findings remain after fix: %v", diags)
	}
	res, err = ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || len(res.ChangedFiles) != 0 {
		t.Fatalf("second pass applied %d fixes to %v, want none", res.Applied, res.ChangedFiles)
	}
	again, err := os.ReadFile(filepath.Join(root, "app/app.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != want {
		t.Fatal("file changed on a no-op fix pass")
	}
}

// TestApplyFixesConflict: two fixes editing the same range must not
// both apply; the second is skipped, never half-applied.
func TestApplyFixesConflict(t *testing.T) {
	root := fixtureModule(t, map[string]string{"app/app.go": fixableSrc})
	diags, err := Run(root, nil, []*Analyzer{AnalyzerErrCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 findings, got %d", len(diags))
	}
	// Duplicate the first diagnostic: same edit range twice.
	dup := append([]Diagnostic{diags[0]}, diags...)
	res, err := ApplyFixes(dup)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Skipped != 1 {
		t.Fatalf("fix result = %+v, want 2 applied 1 skipped", res)
	}
}
