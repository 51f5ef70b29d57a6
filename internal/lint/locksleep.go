package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerLockSleep flags time.Sleep inside _test.go files: sleeping
// to "wait for the goroutine" is the root cause of flaky concurrency
// tests; wait on a channel, a sync.WaitGroup, or poll with a deadline
// instead. Copies of lock-bearing values are go vet's copylocks check.
var AnalyzerLockSleep = &Analyzer{
	Name: "locksleep",
	Doc:  "flag time.Sleep-based synchronization in tests",
	Run:  runLockSleep,
}

func runLockSleep(pass *Pass) {
	for _, f := range pass.Files {
		if !pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isTimeSleep(pass, call) {
				pass.Reportf(call.Pos(), "time.Sleep as test synchronization is flaky; wait on a channel/WaitGroup or poll with a deadline")
			}
			return true
		})
	}
}

func isTimeSleep(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sleep" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "time"
}
