package lint

import (
	"go/ast"
)

// AnalyzerWallTime flags wall-clock readings (time.Now, time.Since,
// time.Until) whose value flows into an encoded artifact, output
// stream, hash, struct state, or write sink. Wall time embedded in a
// model file or CSV/JSON export breaks the model's content hash
// (core.Model.Hash) and the byte-identity of exported tables; elapsed
// time belongs in the metrics registry, which this analyzer
// deliberately does not treat as a sink.
var AnalyzerWallTime = &Analyzer{
	Name: "walltime",
	Doc:  "flag wall-clock values flowing into exported artifacts, hashes, or model state",
	Run:  runWallTime,
}

// wallClockSources are the time package functions whose results are
// nondeterministic across runs.
var wallClockSources = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

func runWallTime(pass *Pass) {
	spec := &taintSpec{
		sourceExpr: func(pass *Pass, call *ast.CallExpr) bool {
			pkg, recv, name, ok := callee(pass, call)
			return ok && recv == "" && pkg == "time" && wallClockSources[name]
		},
		// No commutative exemption: an accumulated wall-clock total is
		// just as nondeterministic as a single reading.
		commutativeReduction: false,
		sinks: func(pass *Pass, n ast.Node) []sinkUse {
			return outputSinks(pass, n, sinkOpts{metricsExport: false, returns: false, fieldStores: true})
		},
	}
	for _, f := range runTaint(pass, spec) {
		origin := pass.Fset.Position(f.origin)
		pass.Reportf(f.pos, "wall-clock value (read on line %d) flows into %s; derive artifacts from deterministic inputs and report elapsed time via internal/metrics", origin.Line, f.what)
	}
}
