package lint

import (
	"fmt"
	"sort"
)

// AnalyzerLockOrder detects inconsistent pairwise mutex acquisition
// order across any synchronous call path: if one path acquires class A
// and then (possibly several calls deep) class B while still holding A,
// and another path acquires B then A, the two can deadlock under
// concurrency. Order facts come from two sources: local acquire sites
// (the classes may-held when a Lock fires) and call edges (caller's
// may-held set crossed with the callee's transitive acquisitions from
// the bottom-up summary fixpoint).
//
// Precision notes: classes are instance-insensitive (see LockClass), so
// a==b self-pairs are skipped — two distinct shard instances locked in
// sequence share a class and would self-report otherwise. Goroutine
// spawns start a fresh stack and contribute no nesting; function-value
// references contribute none either (no call happens at the reference).
var AnalyzerLockOrder = &ModuleAnalyzer{
	Name: "lockorder",
	Doc:  "detect opposite pairwise mutex acquisition orders across call paths (deadlock risk)",
	Run:  runLockOrder,
}

// orderWitness records the first-seen evidence that class First was
// held while class Second was acquired.
type orderWitness struct {
	first, second LockClass
	steps         []TraceStep // call path ending at the Second acquire
}

func runLockOrder(p *ModulePass) {
	type dirKey struct{ first, second LockClass }
	witnesses := make(map[dirKey]*orderWitness)
	var order []dirKey
	record := func(first, second LockClass, steps []TraceStep) {
		if first == second {
			return // instance-insensitive classes: a->a is not evidence
		}
		k := dirKey{first, second}
		if _, seen := witnesses[k]; seen {
			return
		}
		witnesses[k] = &orderWitness{first: first, second: second, steps: steps}
		order = append(order, k)
	}

	for _, n := range p.Graph.NodesInOrder() {
		s := p.Summaries.Get(n.ID)
		// Local nesting: a Lock that fires while other classes are held.
		for _, a := range s.Acquires {
			for _, held := range a.HeldMay {
				record(held, a.Class, []TraceStep{{
					Pos:     a.Pos,
					Message: fmt.Sprintf("%s acquires %s while holding %s", n.ID, shortLockClass(a.Class), shortLockClass(held)),
				}})
			}
		}
		// Interprocedural nesting: held classes crossing a call into a
		// callee that (transitively) acquires more.
		for _, e := range n.Out {
			if !e.Kind.Synchronous() || len(e.HeldMay) == 0 {
				continue
			}
			cs := p.Summaries.Get(e.Callee.ID)
			for _, cls := range sortedTransClasses(cs.TransAcquires) {
				t := cs.TransAcquires[cls]
				for _, held := range e.HeldMay {
					steps := append([]TraceStep{{
						Pos:     e.Pos,
						Message: fmt.Sprintf("%s calls %s while holding %s", n.ID, e.Callee.ID, shortLockClass(held)),
					}}, t.Path...)
					record(held, cls, steps)
				}
			}
		}
	}

	// A conflict is a pair with witnesses in both directions. Report
	// once per unordered pair, anchored at the lexically first
	// direction's acquire site, with both call paths attached.
	reported := make(map[dirKey]bool)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.first != b.first {
			return a.first < b.first
		}
		return a.second < b.second
	})
	for _, k := range order {
		rev := dirKey{k.second, k.first}
		if reported[k] || reported[rev] {
			continue
		}
		back, both := witnesses[rev]
		if !both {
			continue
		}
		reported[k] = true
		fwd := witnesses[k]
		pos := fwd.steps[len(fwd.steps)-1].Pos
		steps := append(append([]TraceStep{}, fwd.steps...), TraceStep{
			Pos:     back.steps[len(back.steps)-1].Pos,
			Message: "opposite order: " + back.steps[0].Message,
		})
		steps = append(steps, back.steps...)
		p.Report(Diagnostic{
			Pos: p.Fset.Position(pos),
			Message: fmt.Sprintf("inconsistent lock order: %s is acquired while holding %s here, but the opposite order exists (see %s) — potential deadlock",
				shortLockClass(k.second), shortLockClass(k.first), p.Fset.Position(back.steps[len(back.steps)-1].Pos)),
			Related: p.Trace(steps),
		})
	}
}
