package lint

import (
	"fmt"
	"sort"
)

// AnalyzerAtomicMix finds fields accessed both through sync/atomic and
// as plain memory anywhere in the module. Mixing the two is a race
// even when the plain side holds a mutex: the atomic reader does not
// acquire that mutex, so it can observe a plain write mid-flight. The
// correct patterns are all-atomic, all-mutex, or an atomic-typed field
// (atomic.Int64, atomic.Pointer) that makes plain access impossible —
// which is exactly what the suggested remediation proposes.
// Constructor-fresh initialization (s := &T{}; s.n = 0 before the
// value is shared) is exempt.
var AnalyzerAtomicMix = &ModuleAnalyzer{
	Name: "atomicmix",
	Doc:  "find fields accessed both via sync/atomic and as plain memory",
	Run:  runAtomicMix,
}

func runAtomicMix(p *ModulePass) {
	type sites struct {
		atomics []accessAt
		plains  []accessAt
	}
	byClass := make(map[string]*sites)
	var classes []string

	for _, n := range p.Graph.NodesInOrder() {
		s := p.Summaries.Get(n.ID)
		for _, acc := range s.Fields {
			if acc.Fresh {
				continue
			}
			st := byClass[acc.Class]
			if st == nil {
				st = &sites{}
				byClass[acc.Class] = st
				classes = append(classes, acc.Class)
			}
			if acc.Atomic {
				st.atomics = append(st.atomics, accessAt{acc: acc, fn: n.ID, read: !acc.Write})
			} else {
				st.plains = append(st.plains, accessAt{acc: acc, fn: n.ID, read: !acc.Write})
			}
		}
	}

	sort.Strings(classes)
	for _, cls := range classes {
		st := byClass[cls]
		if len(st.atomics) == 0 || len(st.plains) == 0 {
			continue
		}
		sortAccesses(st.atomics)
		sortAccesses(st.plains)
		plain, at := st.plains[0], st.atomics[0]
		kind := "written"
		if plain.read {
			kind = "read"
		}
		steps := []TraceStep{
			{Pos: at.acc.Pos, Message: fmt.Sprintf("atomic access in %s", at.fn)},
		}
		for _, pl := range st.plains {
			steps = append(steps, TraceStep{Pos: pl.acc.Pos, Message: fmt.Sprintf("plain access in %s", pl.fn)})
		}
		p.Report(Diagnostic{
			Pos: p.Fset.Position(plain.acc.Pos),
			Message: fmt.Sprintf("field %s is accessed atomically (e.g. %s) but %s here as plain memory — use sync/atomic everywhere or an atomic-typed field",
				shortLockClass(LockClass(cls)), p.Fset.Position(at.acc.Pos), kind),
			Related: p.Trace(steps),
		})
	}
}
