// Package lint is a small static-analysis framework built entirely on
// the standard library (go/ast, go/parser, go/types). It exists because
// the reproduction's correctness rests on numeric invariants the
// compiler cannot see — watts vs. joules, exact float comparison in
// model code, deterministic seeding of the clustering/CART pipeline —
// and the module deliberately carries zero external dependencies, so
// golang.org/x/tools/go/analysis is off the table.
//
// The shape mirrors x/tools: an Analyzer owns a name, a doc string and
// a Run function; a Pass hands the Run function one type-checked
// package unit (its files, *types.Package and *types.Info) plus a
// position-accurate Reportf. Findings can be suppressed at the site
// with a justified directive:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or the line directly above it. A
// directive without a reason is itself reported (check "lint") so
// suppressions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name, e.g. "floatcmp"
	Message string
	// Fixes carries machine-applicable suggested fixes; acsel-lint -fix
	// applies the first one (see fix.go). Analyzers only attach a fix
	// when it is safe and semantics-preserving.
	Fixes []SuggestedFix
	// Related carries the call-path trace of an interprocedural finding
	// (module analyzers, modulepass.go): each step explains one hop from
	// the reported position to the root cause. Rendered as SARIF
	// relatedLocations, and a //lint:ignore directive on ANY step's line
	// suppresses the finding (ignore.go).
	Related []RelatedPos
}

// RelatedPos is one step of a diagnostic's interprocedural explanation.
type RelatedPos struct {
	Pos     token.Position
	Message string
}

// TextEdit replaces the source range [Start.Offset, End.Offset) of
// Start.Filename with NewText. Positions are fully resolved so the fix
// applier works from file bytes without re-parsing.
type TextEdit struct {
	Start   token.Position
	End     token.Position
	NewText string
}

// SuggestedFix is one machine-applicable remediation for a diagnostic.
// Edits must not overlap; the applier runs the result through gofmt,
// so edits may be loose about whitespace.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// String formats the diagnostic in the canonical CLI form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check. Run inspects a single package unit and
// reports findings through the Pass.
type Analyzer struct {
	Name string // short lowercase identifier used in output and ignore directives
	Doc  string // one-line description
	Run  func(*Pass)
}

// Pass presents one type-checked package unit to an analyzer. A unit is
// either a package's non-test + in-package test files, or an external
// _test package; the two are checked separately, exactly as the go tool
// compiles them.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos under the running analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Report records a pre-built diagnostic (used by analyzers that attach
// suggested fixes). The Check field is stamped with the running
// analyzer's name.
func (p *Pass) Report(d Diagnostic) {
	d.Check = p.check
	p.report(d)
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. Several checks apply only inside or only outside tests.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerFloatCmp,
		AnalyzerUnits,
		AnalyzerGlobalRand,
		AnalyzerErrCheck,
		AnalyzerLockSleep,
		AnalyzerMetricName,
		AnalyzerMapOrder,
		AnalyzerGoroLeak,
		AnalyzerWallTime,
	}
}

// ByName resolves a comma-separated list of analyzer names against the
// full suite. An empty spec selects everything.
func ByName(spec string) ([]*Analyzer, error) {
	all := All()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the analyzer names in suite order.
func Names() []string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return ns
}

// runUnit applies each analyzer to one package unit and returns the
// surviving (non-suppressed) diagnostics plus any directive errors.
func runUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			check:     a.Name,
			report:    func(d Diagnostic) { raw = append(raw, d) },
		}
		a.Run(pass)
	}
	ignores, directiveDiags := collectIgnores(fset, files)
	out := directiveDiags
	for _, d := range raw {
		if ignores.suppresses(d) {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders findings by file, line, column, then check so
// output (and golden files) are deterministic.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
