package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerMapOrder flags values derived from map iteration order that
// reach an output, hash, encoder, metrics-export, return, or
// field-store sink without an intervening sort. Go randomizes map
// iteration, so such a flow makes stdout tables, CSV exports, JSON
// snapshots, and content-addressed cache keys differ run to run — the
// exact bug class that would silently break the repo's byte-identical
// Table III and deterministic-evaluation guarantees.
//
// The check is dataflow-based (CFG + reaching definitions + taint),
// not an AST pattern: collecting map keys into a slice and sorting it
// before use is recognized as clean, and purely commutative folds over
// a map (sum += v, n++) are not flagged.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map-iteration-ordered values reaching output/hash/export sinks without a sort",
	Run:  runMapOrder,
}

// mapOrderTaintSpec is the shared flow specification: the unit analyzer
// runs it per package, and the summary layer (summary.go) runs it per
// call-graph node to record map-order escapes as nondeterminism facts
// for the interprocedural puredet analyzer.
func mapOrderTaintSpec() *taintSpec {
	return &taintSpec{
		sourceDef: func(pass *Pass, d *DefSite) bool {
			return d.Kind == DefRange && d.RHS != nil && isMapType(pass.TypeOf(d.RHS))
		},
		sanitized:            sortSanitized,
		commutativeReduction: true,
		sinks: func(pass *Pass, n ast.Node) []sinkUse {
			return outputSinks(pass, n, sinkOpts{
				metricsExport:          true,
				returns:                true,
				fieldStores:            true,
				commutativeFieldStores: true,
			})
		},
	}
}

func runMapOrder(pass *Pass) {
	for _, f := range runTaint(pass, mapOrderTaintSpec()) {
		origin := pass.Fset.Position(f.origin)
		pass.Reportf(f.pos, "value ordered by map iteration (range on line %d) reaches %s without an intervening sort", origin.Line, f.what)
	}
}

// sortSanitized recognizes the standard sorting calls as strong,
// clean re-definitions of their argument: sort.Strings/Ints/Float64s/
// Slice/SliceStable/Sort/Stable and slices.Sort/SortFunc/
// SortStableFunc. sort.Sort(sort.StringSlice(x)) digs through the
// interface conversion to x.
func sortSanitized(pass *Pass, n ast.Node) []types.Object {
	var out []types.Object
	walkShallowParts(n, func(sub ast.Node) {
		call, ok := sub.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		pkg, recv, name, resolved := callee(pass, call)
		if !resolved || recv != "" {
			return
		}
		sorts := false
		switch pkg {
		case "sort":
			switch name {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
				sorts = true
			}
		case "slices":
			switch name {
			case "Sort", "SortFunc", "SortStableFunc":
				sorts = true
			}
		}
		if !sorts {
			return
		}
		arg := ast.Unparen(call.Args[0])
		// sort.Sort(byName(x)): unwrap a single-argument conversion.
		if conv, isCall := arg.(*ast.CallExpr); isCall && len(conv.Args) == 1 {
			arg = ast.Unparen(conv.Args[0])
		}
		if root := rootIdent(arg); root != nil {
			if obj := identObject(pass.TypesInfo, root); obj != nil {
				out = append(out, obj)
			}
		}
	})
	return out
}
