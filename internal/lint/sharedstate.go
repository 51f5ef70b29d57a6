package lint

import (
	"fmt"
	"sort"
)

// AnalyzerSharedState finds struct fields that are mutex-guarded on
// some access paths but touched bare on others. Seeding is deliberate:
// only structs that declare a sync.Mutex / sync.RWMutex field are
// considered — the mutex's presence is the author's statement that the
// struct's state is shared — and a field only fires when it has at
// least one WRITE under the mutex (must-held, including lock context
// inherited from callers via the entry-held fixpoint) AND at least one
// access on a path where the mutex is provably not held (may-held
// empty). Accesses through constructor-fresh locals, atomic-typed
// fields, atomic calls, channels and sync primitives are exempt.
var AnalyzerSharedState = &ModuleAnalyzer{
	Name: "sharedstate",
	Doc:  "find struct fields written under their mutex on some paths but accessed bare on others",
	Run:  runSharedState,
}

// fieldEvidence accumulates module-wide evidence about one field class.
type fieldEvidence struct {
	class  string
	strct  string
	guards []accessAt // guarded writes
	bares  []accessAt // accesses with the mutex provably unheld
}

type accessAt struct {
	acc  FieldAccess
	fn   FuncID
	read bool
}

func runSharedState(p *ModulePass) {
	evidence := make(map[string]*fieldEvidence)
	var classes []string

	for _, n := range p.Graph.NodesInOrder() {
		s := p.Summaries.Get(n.ID)
		for _, acc := range s.Fields {
			if acc.Atomic || acc.Fresh {
				continue
			}
			mutexes := p.Summaries.MutexFields[acc.Struct]
			if len(mutexes) == 0 {
				continue // struct declares no mutex: not shared state by its own account
			}
			mustHeld := classSet(acc.HeldMust, s.EntryMust)
			mayHeld := classSet(acc.HeldMay, s.EntryMust)
			guarded, possiblyHeld := false, false
			for _, m := range mutexes {
				if mustHeld[m] {
					guarded = true
				}
				if mayHeld[m] {
					possiblyHeld = true
				}
			}
			ev := evidence[acc.Class]
			if ev == nil {
				ev = &fieldEvidence{class: acc.Class, strct: acc.Struct}
				evidence[acc.Class] = ev
				classes = append(classes, acc.Class)
			}
			switch {
			case guarded && acc.Write:
				ev.guards = append(ev.guards, accessAt{acc: acc, fn: n.ID, read: !acc.Write})
			case !possiblyHeld:
				ev.bares = append(ev.bares, accessAt{acc: acc, fn: n.ID, read: !acc.Write})
			}
			// May-but-not-must contexts assert nothing either way.
		}
	}

	sort.Strings(classes)
	for _, cls := range classes {
		ev := evidence[cls]
		if len(ev.guards) == 0 || len(ev.bares) == 0 {
			continue
		}
		sortAccesses(ev.guards)
		sortAccesses(ev.bares)
		bare, guard := ev.bares[0], ev.guards[0]
		kind := "written"
		if bare.read {
			kind = "read"
		}
		steps := []TraceStep{
			{Pos: guard.acc.Pos, Message: fmt.Sprintf("guarded write in %s (mutex held)", guard.fn)},
		}
		for _, b := range ev.bares {
			steps = append(steps, TraceStep{Pos: b.acc.Pos, Message: fmt.Sprintf("bare access in %s", b.fn)})
		}
		p.Report(Diagnostic{
			Pos: p.Fset.Position(bare.acc.Pos),
			Message: fmt.Sprintf("field %s is written under its mutex (e.g. %s) but %s here without it — data race",
				shortLockClass(LockClass(cls)), p.Fset.Position(guard.acc.Pos), kind),
			Related: p.Trace(steps),
		})
	}
}

// classSet unions slices of lock classes into a membership set.
func classSet(slices ...[]LockClass) map[LockClass]bool {
	out := make(map[LockClass]bool)
	for _, s := range slices {
		for _, c := range s {
			out[c] = true
		}
	}
	return out
}

func sortAccesses(as []accessAt) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].acc.Pos != as[j].acc.Pos {
			return as[i].acc.Pos < as[j].acc.Pos
		}
		return as[i].fn < as[j].fn
	})
}
