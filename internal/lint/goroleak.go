package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerGoroLeak guards the repository's goroutine discipline (see
// core.Characterize and eval.RunOnProfiles: semaphore-before-spawn,
// WaitGroup.Add before go). It reports three shapes:
//
//  1. a goroutine sending on (or receiving from) an unbuffered channel
//     while the spawning function has a control-flow path to return
//     that never performs the counterpart operation — the goroutine
//     blocks forever and leaks;
//  2. sync.WaitGroup.Add called inside the spawned goroutine, which
//     races with Wait in the parent;
//  3. a semaphore slot (buffered channel send paired with a deferred
//     receive) acquired inside the goroutine instead of before the go
//     statement, which lets the full fan-out materialize at once.
//
// Whether a channel is unbuffered is decided by reaching definitions —
// the make(chan T) that flows into the operation — and the "some path
// returns without receiving" question is CFG reachability, so the
// analyzer stays quiet on the codebase's correct worker pools.
var AnalyzerGoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flag goroutines that can block forever on unbuffered channels, in-goroutine WaitGroup.Add, and in-goroutine semaphore acquisition",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, f := range pass.Files {
		FuncBodies(f, func(owner ast.Node, body *ast.BlockStmt) {
			runGoroLeakBody(pass, owner, body)
		})
	}
}

func runGoroLeakBody(pass *Pass, owner ast.Node, body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	rd := NewReachingDefs(owner, cfg, pass.TypesInfo, nil)
	locs := nodeLocs(cfg)

	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			goStmt, ok := n.(*ast.GoStmt)
			if !ok {
				continue
			}
			closure, ok := ast.Unparen(goStmt.Call.Fun).(*ast.FuncLit)
			if !ok {
				continue
			}
			checkWaitGroupAdd(pass, closure)
			checkSemaphoreInside(pass, rd, goStmt, closure)
			checkUnbufferedOps(pass, cfg, rd, locs, goStmt, closure)
		}
	}
}

// checkWaitGroupAdd reports sync.WaitGroup.Add anywhere inside the
// spawned closure (including nested literals): if the parent reaches
// Wait before the goroutine is scheduled, Wait sees a zero counter and
// returns early.
func checkWaitGroupAdd(pass *Pass, closure *ast.FuncLit) {
	ast.Inspect(closure.Body, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, recv, name, resolved := callee(pass, call)
		if resolved && pkg == "sync" && recv == "WaitGroup" && name == "Add" {
			pass.Reportf(call.Pos(), "sync.WaitGroup.Add inside the spawned goroutine races with Wait; call Add before the go statement")
		}
		return true
	})
}

// checkSemaphoreInside detects the acquire-inside-goroutine
// anti-pattern: the closure sends a slot token on a buffered channel
// and releases it in a defer. The send must happen before the go
// statement so at most one goroutine exists per slot.
func checkSemaphoreInside(pass *Pass, rd *ReachingDefs, goStmt *ast.GoStmt, closure *ast.FuncLit) {
	// Deferred receives inside the closure: chan object -> seen.
	released := make(map[types.Object]bool)
	for _, s := range closure.Body.List {
		def, ok := s.(*ast.DeferStmt)
		if !ok {
			continue
		}
		ast.Inspect(def, func(sub ast.Node) bool {
			if u, isU := sub.(*ast.UnaryExpr); isU && u.Op.String() == "<-" {
				if root := rootIdent(u.X); root != nil {
					if obj := identObject(pass.TypesInfo, root); obj != nil {
						released[obj] = true
					}
				}
			}
			return true
		})
	}
	if len(released) == 0 {
		return
	}
	walkShallow(closure.Body, func(sub ast.Node) {
		send, ok := sub.(*ast.SendStmt)
		if !ok {
			return
		}
		root := rootIdent(send.Chan)
		if root == nil {
			return
		}
		obj := identObject(pass.TypesInfo, root)
		if obj == nil || !released[obj] {
			return
		}
		if buffered, known := channelBuffering(pass, rd, goStmt, obj); known && buffered {
			pass.Reportf(send.Pos(), "semaphore slot on %s acquired inside the spawned goroutine; acquire before the go statement (semaphore-before-spawn) so at most one goroutine exists per slot", root.Name)
		}
	})
}

// checkUnbufferedOps reports channel operations inside the closure that
// can block forever: the channel is provably unbuffered (every
// definition reaching the go statement is a make(chan T) with no or
// zero capacity) and the parent has a path to exit without the
// counterpart operation.
func checkUnbufferedOps(pass *Pass, cfg *CFG, rd *ReachingDefs, locs map[ast.Node]nodeLoc, goStmt *ast.GoStmt, closure *ast.FuncLit) {
	loc, ok := locs[goStmt]
	if !ok {
		return
	}
	report := func(pos ast.Node, obj types.Object, opDesc, needDesc string, counterpart func(ast.Node) bool) {
		if buffered, known := channelBuffering(pass, rd, goStmt, obj); !known || buffered {
			return
		}
		// Escape hatch: the channel handed to any non-builtin call may
		// be consumed by code this analysis cannot see.
		for _, bb := range cfg.Blocks {
			for _, m := range bb.Nodes {
				if chanEscapes(pass, m, obj) {
					return
				}
			}
		}
		if existsPathAvoiding(cfg, loc.block, loc.index+1, counterpart) {
			pass.Reportf(pos.Pos(), "goroutine %s unbuffered channel %s, but the spawning function can return without %s; the goroutine blocks forever", opDesc, obj.Name(), needDesc)
		}
	}

	for _, op := range closureChanOps(pass, closure) {
		obj := op.obj
		if op.send {
			report(op.node, obj, "sends on", "receiving from it",
				func(m ast.Node) bool { return nodeReceivesFrom(pass, m, obj) })
		} else {
			report(op.node, obj, "receives from", "sending on or closing it",
				func(m ast.Node) bool { return nodeSendsOrCloses(pass, m, obj) })
		}
	}
}

// chanOp is one channel operation found inside a goroutine closure.
type chanOp struct {
	node ast.Node
	obj  types.Object
	send bool
}

// closureChanOps collects the closure's channel sends and receives that
// can block forever, skipping operations wrapped in a select that has
// an escape (another case or a default).
func closureChanOps(pass *Pass, closure *ast.FuncLit) []chanOp {
	var ops []chanOp
	var visit func(n ast.Node, selectEscape bool)
	visit = func(n ast.Node, selectEscape bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if n != closure {
				return // separate goroutine/closure body
			}
		case *ast.SelectStmt:
			escape := len(n.Body.List) > 1
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					escape = true // default clause
				}
			}
			for _, c := range n.Body.List {
				visit(c, escape)
			}
			return
		case *ast.SendStmt:
			if !selectEscape {
				if root := rootIdent(n.Chan); root != nil {
					if obj := identObject(pass.TypesInfo, root); obj != nil {
						ops = append(ops, chanOp{node: n, obj: obj, send: true})
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !selectEscape {
				if root := rootIdent(n.X); root != nil {
					if obj := identObject(pass.TypesInfo, root); obj != nil {
						ops = append(ops, chanOp{node: n, obj: obj, send: false})
					}
				}
			}
		}
		// Manual recursion so the selectEscape flag scopes correctly.
		children(n, func(c ast.Node) { visit(c, selectEscape) })
	}
	visit(closure.Body, false)
	return ops
}

// children calls fn for each direct child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		fn(sub)
		return false
	})
}

// channelBuffering inspects every definition of obj reaching the go
// statement. known is true only when all of them are make(chan ...)
// calls with a decidable capacity; buffered reports a nonzero one.
func channelBuffering(pass *Pass, rd *ReachingDefs, at ast.Node, obj types.Object) (buffered, known bool) {
	defs := rd.At(at, obj)
	if len(defs) == 0 {
		return false, false
	}
	sawBuffered := false
	for _, d := range defs {
		if d.RHS == nil {
			return false, false
		}
		call, ok := ast.Unparen(d.RHS).(*ast.CallExpr)
		if !ok {
			return false, false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false, false
		}
		if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); !isB || b.Name() != "make" {
			return false, false
		}
		if !isChanType(pass.TypeOf(d.RHS)) {
			return false, false
		}
		switch len(call.Args) {
		case 1:
			// make(chan T): unbuffered.
		case 2:
			tv, okTV := pass.TypesInfo.Types[call.Args[1]]
			if okTV && tv.Value != nil && tv.Value.String() == "0" {
				// make(chan T, 0): unbuffered.
			} else {
				sawBuffered = true
			}
		default:
			return false, false
		}
	}
	return sawBuffered, true
}

// chanEscapes reports whether obj is passed as an argument to any
// non-builtin call in the node — an unknown consumer that silences the
// leak report rather than risking a false positive.
func chanEscapes(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	walkShallowParts(n, func(sub ast.Node) {
		call, ok := sub.(*ast.CallExpr)
		if !ok || found {
			return
		}
		if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID {
			if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB {
				return
			}
		}
		for _, arg := range call.Args {
			if id, isID := ast.Unparen(arg).(*ast.Ident); isID && identObject(pass.TypesInfo, id) == obj {
				found = true
				return
			}
		}
	})
	return found
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// nodeReceivesFrom reports whether the node receives from obj's channel
// (<-ch, range ch).
func nodeReceivesFrom(pass *Pass, n ast.Node, obj types.Object) bool {
	if r, ok := n.(*ast.RangeStmt); ok {
		if root := rootIdent(r.X); root != nil && identObject(pass.TypesInfo, root) == obj {
			return true
		}
	}
	found := false
	walkShallowParts(n, func(sub ast.Node) {
		if u, ok := sub.(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
			if root := rootIdent(u.X); root != nil && identObject(pass.TypesInfo, root) == obj {
				found = true
			}
		}
	})
	return found
}

// nodeSendsOrCloses reports whether the node sends on or closes obj's
// channel.
func nodeSendsOrCloses(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	walkShallowParts(n, func(sub ast.Node) {
		switch s := sub.(type) {
		case *ast.SendStmt:
			if root := rootIdent(s.Chan); root != nil && identObject(pass.TypesInfo, root) == obj {
				found = true
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(s.Fun).(*ast.Ident)
			if !ok {
				return
			}
			if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && b.Name() == "close" && len(s.Args) == 1 {
				if root := rootIdent(s.Args[0]); root != nil && identObject(pass.TypesInfo, root) == obj {
					found = true
				}
			}
		}
	})
	return found
}
