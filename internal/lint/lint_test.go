package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// TestAnalyzerGolden runs every analyzer over its fixture directory and
// compares the formatted findings of each fixture file against its
// .golden sibling. A missing or empty golden file asserts the fixture
// is clean. Run with -update to regenerate.
func TestAnalyzerGolden(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("no fixture dir for analyzer %s: %v", a.Name, err)
			}
			ran := false
			for _, e := range ents {
				if !strings.HasSuffix(e.Name(), ".go") {
					continue
				}
				ran = true
				fixture := filepath.Join(dir, e.Name())
				t.Run(e.Name(), func(t *testing.T) {
					got := formatForGolden(checkFixture(t, a, fixture))
					goldenPath := fixture + ".golden"
					if *update {
						if got == "" {
							os.Remove(goldenPath)
						} else if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want := ""
					if data, err := os.ReadFile(goldenPath); err == nil {
						want = string(data)
					}
					if got != want {
						t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", fixture, got, want)
					}
				})
			}
			if !ran {
				t.Fatalf("analyzer %s has no fixtures", a.Name)
			}
		})
	}
}

// checkFixture type-checks one standalone fixture file and runs a
// single analyzer (plus the suppression layer) over it.
func checkFixture(t *testing.T, a *Analyzer, path string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return runUnit(fset, []*ast.File{f}, pkg, info, []*Analyzer{a})
}

// formatForGolden renders diagnostics without the filename so golden
// files stay machine-independent.
func formatForGolden(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%d:%d: [%s] %s\n", d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	}
	return b.String()
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want full suite", len(all), err)
	}
	subset, err := ByName("floatcmp, globalrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "floatcmp" || subset[1].Name != "globalrand" {
		t.Fatalf("ByName subset = %v", subset)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("ByName accepted an unknown check")
	}
}

func TestSplitDirective(t *testing.T) {
	cases := []struct {
		in     string
		checks []string
		ok     bool
	}{
		{"floatcmp deliberate exact comparison", []string{"floatcmp"}, true},
		{"floatcmp,errcheck normalized beforehand", []string{"floatcmp", "errcheck"}, true},
		{"floatcmp", nil, false},             // no reason
		{"", nil, false},                     // empty
		{", missing check name", nil, false}, // empty check in list
	}
	for _, c := range cases {
		checks, _, ok := splitDirective(c.in)
		if ok != c.ok {
			t.Errorf("splitDirective(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && strings.Join(checks, "+") != strings.Join(c.checks, "+") {
			t.Errorf("splitDirective(%q) checks = %v, want %v", c.in, checks, c.checks)
		}
	}
}

// TestMalformedDirective verifies that an ignore directive without a
// reason is itself reported and does not suppress anything.
func TestMalformedDirective(t *testing.T) {
	src := `package p

func f(a, b float64) bool {
	//lint:ignore floatcmp
	return a == b
}
`
	ds := checkSource(t, src, All())
	var got []string
	for _, d := range ds {
		got = append(got, d.Check)
	}
	sort.Strings(got)
	if strings.Join(got, "+") != "floatcmp+lint" {
		t.Fatalf("checks = %v, want the finding plus the malformed-directive report", got)
	}
}

// TestSuppressionDistance verifies a directive two lines above the
// finding does not suppress it.
func TestSuppressionDistance(t *testing.T) {
	src := `package p

func f(a, b float64) bool {
	//lint:ignore floatcmp too far away to apply

	return a == b
}
`
	ds := checkSource(t, src, []*Analyzer{AnalyzerFloatCmp})
	if len(ds) != 1 || ds[0].Check != "floatcmp" {
		t.Fatalf("diagnostics = %v, want one unsuppressed floatcmp finding", ds)
	}
}

func checkSource(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return runUnit(fset, []*ast.File{f}, pkg, info, analyzers)
}

// TestRunModule exercises the whole pipeline — module discovery,
// cross-package type-checking, analysis, sorting — on a synthetic
// two-package module.
func TestRunModule(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "go.mod", "module sandbox\n\ngo 1.22\n")
	writeFile(t, root, "lib/lib.go", `package lib

// PowerWatts is a sample measurement.
func PowerWatts() float64 { return 42 }
`)
	writeFile(t, root, "app/app.go", `package app

import (
	"math/rand"

	"sandbox/lib"
)

func Draw(energyJoules float64) bool {
	return lib.PowerWatts() == energyJoules+rand.Float64()
}
`)

	diags, err := Run(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Check)
	}
	sort.Strings(got)
	if strings.Join(got, "+") != "floatcmp+globalrand" {
		t.Fatalf("checks = %v, want one floatcmp and one globalrand finding", got)
	}

	// Pattern selection: linting only lib must be clean.
	diags, err = Run(root, []string{"./lib"}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("lib alone should be clean, got %v", diags)
	}
}

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

func writeFile(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
