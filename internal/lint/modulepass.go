package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural entry point: where lint.go's Pass
// hands one type-checked package unit to an Analyzer, a ModulePass
// hands the whole analyzed module — every unit, the call graph, and
// per-function summaries — to a ModuleAnalyzer. The four clients
// (lockorder, sharedstate, atomicmix, puredet) ask questions no single
// compilation unit can answer: "is this pair of mutexes ever nested in
// the opposite order two calls away", "does a wall-clock read reach
// this annotated root through three packages".
//
// Scope: module analyzers see the non-test production code only. Test
// functions exercise lock orders and nondeterminism deliberately
// (chaos suites, fuzzing), so their bodies contribute neither call
// edges nor summaries, and no module finding is ever positioned in a
// _test.go file.

// ModuleUnit is one type-checked package unit as the module pass sees
// it: the same (files, package, info) triple handed to unit analyzers.
type ModuleUnit struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// ModuleAnalyzer is one whole-module check. Run inspects the complete
// program and reports findings through the ModulePass.
type ModuleAnalyzer struct {
	Name string // short lowercase identifier used in output and ignore directives
	Doc  string // one-line description
	Run  func(*ModulePass)
}

// ModulePass presents the analyzed module to one ModuleAnalyzer.
type ModulePass struct {
	Fset      *token.FileSet
	Units     []*ModuleUnit
	Graph     *CallGraph
	Summaries *SummarySet

	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos under the running analyzer's name.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Report records a pre-built diagnostic (used by analyzers that attach
// call-path traces via Diagnostic.Related). The Check field is stamped
// with the running analyzer's name.
func (p *ModulePass) Report(d Diagnostic) {
	d.Check = p.check
	p.report(d)
}

// Trace converts a call-path (positions with explanations) into the
// Related entries carried by an interprocedural diagnostic, so findings
// are explainable and suppressible at any step of the path.
func (p *ModulePass) Trace(steps []TraceStep) []RelatedPos {
	out := make([]RelatedPos, 0, len(steps))
	for _, s := range steps {
		out = append(out, RelatedPos{Pos: p.Fset.Position(s.Pos), Message: s.Message})
	}
	return out
}

// TraceStep is one hop of an interprocedural explanation.
type TraceStep struct {
	Pos     token.Pos
	Message string
}

// AllModule returns the module-analyzer suite in stable order.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		AnalyzerLockOrder,
		AnalyzerSharedState,
		AnalyzerAtomicMix,
		AnalyzerPureDet,
	}
}

// Suite bundles the unit-level and module-level analyzers of one run.
type Suite struct {
	Unit   []*Analyzer
	Module []*ModuleAnalyzer
}

// FullSuite returns every analyzer, unit and module level.
func FullSuite() Suite {
	return Suite{Unit: All(), Module: AllModule()}
}

// SuiteByName resolves a comma-separated list of analyzer names across
// both suites. An empty spec selects everything.
func SuiteByName(spec string) (Suite, error) {
	if strings.TrimSpace(spec) == "" {
		return FullSuite(), nil
	}
	unitByName := make(map[string]*Analyzer)
	for _, a := range All() {
		unitByName[a.Name] = a
	}
	modByName := make(map[string]*ModuleAnalyzer)
	for _, a := range AllModule() {
		modByName[a.Name] = a
	}
	var s Suite
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if a, ok := unitByName[name]; ok {
			s.Unit = append(s.Unit, a)
			continue
		}
		if a, ok := modByName[name]; ok {
			s.Module = append(s.Module, a)
			continue
		}
		return Suite{}, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(SuiteNames(), ", "))
	}
	return s, nil
}

// SuiteNames lists every analyzer name, unit suite first.
func SuiteNames() []string {
	ns := Names()
	for _, a := range AllModule() {
		ns = append(ns, a.Name)
	}
	return ns
}

// runModule builds the interprocedural program — call graph plus
// summaries — and applies each module analyzer to it. Suppression uses
// the module-wide ignore index and, unlike the unit path, honors a
// directive placed on any step of a finding's call-path trace.
// Directive-syntax diagnostics are NOT re-emitted here (the unit pass
// owns them); only analyzer findings survive.
func runModule(fset *token.FileSet, units []*ModuleUnit, analyzers []*ModuleAnalyzer) []Diagnostic {
	prog := buildProgram(fset, units)
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &ModulePass{
			Fset:      fset,
			Units:     prog.units,
			Graph:     prog.graph,
			Summaries: prog.summaries,
			check:     a.Name,
			report:    func(d Diagnostic) { raw = append(raw, d) },
		}
		a.Run(pass)
	}

	var allFiles []*ast.File
	for _, u := range units {
		allFiles = append(allFiles, u.Files...)
	}
	ignores, _ := collectIgnores(fset, allFiles)
	var out []Diagnostic
	for _, d := range raw {
		if ignores.suppresses(d) {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
	return out
}

// program is the assembled interprocedural view.
type program struct {
	units     []*ModuleUnit
	graph     *CallGraph
	summaries *SummarySet
}

// buildProgram assembles the call graph and summary set over the
// production (non-test) portion of the units.
func buildProgram(fset *token.FileSet, units []*ModuleUnit) *program {
	graph := BuildCallGraph(fset, units)
	sums := ComputeSummaries(fset, graph)
	return &program{units: units, graph: graph, summaries: sums}
}
