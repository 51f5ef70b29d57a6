package lint

import (
	"fmt"
	"strings"
)

// AnalyzerPureDet is the whole-program escalation of the walltime /
// globalrand / maporder unit checks: a function annotated
//
//	//lint:deterministic
//
// in its doc comment claims that its results depend only on its inputs,
// and puredet verifies the claim over the call graph — every function
// reachable through static, method, interface, literal, reference, and
// goroutine edges must be free of nondeterminism sources. Goroutine
// and function-value edges are included deliberately: spawned workers
// feed their results back (the eval fold loop), and a stored callback
// runs eventually. A call the graph cannot resolve (a func-typed
// parameter or field) is reported as unprovable rather than assumed
// pure.
//
// The metrics registry is exempt: recording elapsed time into
// observability counters is the sanctioned destination for wall-clock
// readings (the walltime unit analyzer encodes the same policy), and
// the registry's exports are deterministic snapshots.
var AnalyzerPureDet = &ModuleAnalyzer{
	Name: "puredet",
	Doc:  "prove //lint:deterministic roots transitively free of nondeterminism sources",
	Run:  runPureDet,
}

// puredetExemptSuffixes lists package-path suffixes whose internals are
// outside the determinism obligation (see the analyzer comment).
var puredetExemptSuffixes = []string{"internal/metrics"}

func puredetExemptPkg(path string) bool {
	for _, suf := range puredetExemptSuffixes {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

func runPureDet(p *ModulePass) {
	for _, root := range p.Summaries.DetRoots {
		checkDetRoot(p, root)
	}
}

// checkDetRoot BFSes the reachable set of one annotated root and
// reports every nondeterminism source and unresolvable call in it,
// each with the call path from the root.
func checkDetRoot(p *ModulePass, root FuncID) {
	rootNode := p.Graph.Lookup(root)
	if rootNode == nil {
		return
	}
	parent := map[FuncID]*CallEdge{}
	seen := map[FuncID]bool{root: true}
	queue := []*CGNode{rootNode}
	var reached []*CGNode
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if puredetExemptPkg(n.Unit.Pkg.Path()) {
			continue // exempt internals: neither checked nor traversed
		}
		reached = append(reached, n)
		for _, e := range n.Out {
			if seen[e.Callee.ID] {
				continue
			}
			seen[e.Callee.ID] = true
			parent[e.Callee.ID] = e
			queue = append(queue, e.Callee)
		}
	}

	for _, n := range reached {
		s := p.Summaries.Get(n.ID)
		path := rootPath(p, root, n.ID, parent)
		for _, nd := range s.Nondet {
			steps := append(append([]TraceStep{}, path...), TraceStep{
				Pos:     nd.Pos,
				Message: nd.Kind + " source: " + nd.Detail,
			})
			p.Report(Diagnostic{
				Pos: p.Fset.Position(nd.Pos),
				Message: fmt.Sprintf("%s source (%s) reachable from //lint:deterministic root %s%s",
					nd.Kind, nd.Detail, root, viaSuffix(root, n.ID)),
				Related: p.Trace(steps),
			})
		}
		for _, u := range s.Unknown {
			steps := append(append([]TraceStep{}, path...), TraceStep{
				Pos:     u.Pos,
				Message: "unresolvable: " + u.Desc,
			})
			p.Report(Diagnostic{
				Pos: p.Fset.Position(u.Pos),
				Message: fmt.Sprintf("cannot prove //lint:deterministic root %s: %s in %s has an unanalyzable target",
					root, u.Desc, n.ID),
				Related: p.Trace(steps),
			})
		}
	}
}

// rootPath reconstructs the BFS call path root -> fn as trace steps.
func rootPath(p *ModulePass, root, fn FuncID, parent map[FuncID]*CallEdge) []TraceStep {
	if fn == root {
		return nil
	}
	var edges []*CallEdge
	for cur := fn; cur != root; {
		e := parent[cur]
		if e == nil {
			break
		}
		edges = append(edges, e)
		cur = e.Caller.ID
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i] // root first
	}
	steps := make([]TraceStep, 0, len(edges))
	for _, e := range edges {
		steps = append(steps, TraceStep{
			Pos:     e.Pos,
			Message: fmt.Sprintf("%s calls %s (%s)", e.Caller.ID, e.Callee.ID, e.Kind),
		})
	}
	return steps
}

func viaSuffix(root, fn FuncID) string {
	if root == fn {
		return ""
	}
	return " (via " + string(fn) + ")"
}
