package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module-wide call graph. Nodes are function bodies — declarations and
// literals — keyed by a symbolic FuncID rather than by types.Object,
// because each package unit is type-checked separately and the same
// function appears as distinct object instances on its defining and
// importing sides; the (package path, receiver, name) triple is the
// identity that survives.
//
// Edge resolution, from precise to conservative:
//
//   - CallStatic: a direct call of a named package function.
//   - CallMethod: a method call whose receiver has a concrete type.
//   - CallIface: a method call through an interface declared in this
//     module, resolved by class-hierarchy analysis to every module
//     type implementing it. Calls through foreign interfaces
//     (io.Writer, http.Handler) get no edges: the stdlib side is
//     outside the analysis universe and is treated as deterministic
//     and lock-free (documented soundness trade-off, DESIGN.md §15).
//   - CallLit: a function literal owned by the caller, assumed to run
//     synchronously where it is defined (it may really run later — a
//     stored callback — which over-approximates, never misses).
//   - CallRef: a named function referenced as a value (passed, stored,
//     assigned). The reference site may invoke it at any time, so the
//     callee's effects are conservatively attributed to the
//     referencing function for reachability questions (puredet), but
//     NOT for lock-nesting ones: no call happens at the reference.
//   - CallGo: a `go` statement. The spawned body runs on a fresh
//     stack, so its lock acquisitions never nest under the spawner's
//     held set; nondeterminism it produces still reaches the spawner's
//     results and propagates.
//
// Calls that resolve to none of the above — a func-typed parameter, a
// stored func field — are classified by the summary layer as unknown
// calls, which puredet reports as unprovable rather than silently
// assuming purity.

// FuncID names a function: "pkg.Name", "pkg.(Recv).Name" for methods,
// or "parent$n" for the n-th function literal inside parent.
type FuncID string

// CallKind classifies how an edge was resolved.
type CallKind int

const (
	CallStatic CallKind = iota
	CallMethod
	CallIface
	CallLit
	CallRef
	CallGo
)

// String returns the short label used in golden dumps.
func (k CallKind) String() string {
	switch k {
	case CallStatic:
		return "static"
	case CallMethod:
		return "method"
	case CallIface:
		return "iface"
	case CallLit:
		return "lit"
	case CallRef:
		return "ref"
	case CallGo:
		return "go"
	}
	return "?"
}

// Synchronous reports whether the callee runs on the caller's stack at
// the edge position, i.e. whether locks held there remain held inside
// the callee. CallRef is excluded (no call happens at a reference) and
// CallGo is excluded (fresh stack).
func (k CallKind) Synchronous() bool {
	switch k {
	case CallStatic, CallMethod, CallIface, CallLit:
		return true
	}
	return false
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *CGNode
	Callee *CGNode
	Kind   CallKind
	Pos    token.Pos
	// HeldMay and HeldMust are the lock classes that may/must be held
	// by the caller at the call site; filled by the summary layer.
	HeldMay  []LockClass
	HeldMust []LockClass
}

// CGNode is one function body in the graph.
type CGNode struct {
	ID   FuncID
	Unit *ModuleUnit
	// Exactly one of Decl/Lit is set; Body is its body.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Out  []*CallEdge
	In   []*CallEdge
	// Root marks a function whose callers are not all visible:
	// exported, main/init, referenced as a value, or spawned as a
	// goroutine. Entry-held inference treats roots as entered lock-free.
	Root bool
}

// Name returns a human-readable name for diagnostics.
func (n *CGNode) Name() string { return string(n.ID) }

// Pos returns the node's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CallGraph is the module-wide graph plus its SCC decomposition.
type CallGraph struct {
	Fset  *token.FileSet
	Nodes map[FuncID]*CGNode
	// order lists node IDs in deterministic construction order
	// (sorted units, file order, declaration order).
	order []FuncID
	// SCCs lists strongly connected components over synchronous edges
	// in reverse topological order: callees before callers, so
	// bottom-up summary propagation is a single sweep.
	SCCs [][]*CGNode
}

// NodesInOrder iterates nodes deterministically.
func (g *CallGraph) NodesInOrder() []*CGNode {
	out := make([]*CGNode, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.Nodes[id])
	}
	return out
}

// Lookup returns the node for id, or nil.
func (g *CallGraph) Lookup(id FuncID) *CGNode { return g.Nodes[id] }

// DumpEdges renders every edge as "caller -> callee [kind]", sorted,
// for golden tests. Positions are omitted so goldens stay stable under
// unrelated edits.
func (g *CallGraph) DumpEdges() string {
	var lines []string
	for _, n := range g.NodesInOrder() {
		for _, e := range n.Out {
			lines = append(lines, fmt.Sprintf("%s -> %s [%s]", e.Caller.ID, e.Callee.ID, e.Kind))
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// BuildCallGraph constructs the graph over the production code of the
// units: test files and external _test packages contribute nothing.
func BuildCallGraph(fset *token.FileSet, units []*ModuleUnit) *CallGraph {
	g := &CallGraph{Fset: fset, Nodes: make(map[FuncID]*CGNode)}
	b := &cgBuilder{g: g, fset: fset, modPkgs: make(map[string]bool)}
	prod := productionUnits(units)

	// Pass 1: create a node per function declaration, and collect the
	// module's named types for class-hierarchy analysis.
	for _, u := range prod {
		b.modPkgs[u.Pkg.Path()] = true
		for _, f := range u.Files {
			if isTestFilename(fset, f) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := declID(u, fd)
				if _, dup := g.Nodes[id]; dup {
					continue // build-tag duplicates: keep the first
				}
				n := &CGNode{ID: id, Unit: u, Decl: fd, Body: fd.Body}
				n.Root = fd.Name.IsExported() || fd.Name.Name == "main" || fd.Name.Name == "init"
				g.Nodes[id] = n
				g.order = append(g.order, id)
			}
		}
		b.collectTypes(u)
	}

	// Pass 2: resolve edges body by body, creating literal nodes as
	// they are encountered.
	for _, id := range append([]FuncID(nil), g.order...) {
		n := g.Nodes[id]
		if n.Decl != nil {
			litN := 0
			b.walkInto(n, n.Body, &litN)
		}
	}

	// Referenced-as-value and goroutine-spawned functions are roots:
	// they can be invoked from contexts the graph does not see.
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Kind == CallRef || e.Kind == CallGo {
				e.Callee.Root = true
			}
		}
	}

	g.SCCs = tarjanSCC(g)
	return g
}

// productionUnits drops external _test package units.
func productionUnits(units []*ModuleUnit) []*ModuleUnit {
	var out []*ModuleUnit
	for _, u := range units {
		if strings.HasSuffix(u.Pkg.Name(), "_test") {
			continue
		}
		out = append(out, u)
	}
	return out
}

func isTestFilename(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// declID computes the FuncID of a declaration in unit u.
func declID(u *ModuleUnit, fd *ast.FuncDecl) FuncID {
	pkg := u.Pkg.Path()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return FuncID(pkg + "." + fd.Name.Name)
	}
	recv := "?"
	if obj, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv = receiverTypeName(sig.Recv().Type())
		}
	}
	return FuncID(pkg + ".(" + recv + ")." + fd.Name.Name)
}

// funcObjID maps a resolved *types.Func to the FuncID of its body.
func funcObjID(obj *types.Func) FuncID {
	if obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg().Path()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return FuncID(pkg + ".(" + receiverTypeName(sig.Recv().Type()) + ")." + obj.Name())
	}
	return FuncID(pkg + "." + obj.Name())
}

// namedImpl is one module named type considered for interface dispatch.
type namedImpl struct {
	named *types.Named
	pkg   string
}

type cgBuilder struct {
	g       *CallGraph
	fset    *token.FileSet
	modPkgs map[string]bool
	// impls lists every named (non-interface) type declared in the
	// module, for class-hierarchy resolution of interface calls.
	impls []namedImpl
}

// collectTypes records unit u's package-scope named types.
func (b *cgBuilder) collectTypes(u *ModuleUnit) {
	scope := u.Pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		b.impls = append(b.impls, namedImpl{named: named, pkg: u.Pkg.Path()})
	}
}

// addEdge appends one resolved edge.
func (b *cgBuilder) addEdge(caller, callee *CGNode, kind CallKind, pos token.Pos) {
	e := &CallEdge{Caller: caller, Callee: callee, Kind: kind, Pos: pos}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// walkInto dispatches every child of n through walkNode, attributing
// effects to owner. It is the "generic node" traversal: any child with
// call-graph relevance is intercepted, everything else recurses.
func (b *cgBuilder) walkInto(owner *CGNode, n ast.Node, litN *int) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil || sub == n {
			return true
		}
		switch sub.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.CallExpr, *ast.Ident, *ast.SelectorExpr:
			b.walkNode(owner, sub, litN)
			return false
		}
		return true
	})
}

// walkNode handles one call-graph-relevant node.
func (b *cgBuilder) walkNode(owner *CGNode, n ast.Node, litN *int) {
	info := owner.Unit.Info
	switch n := n.(type) {
	case *ast.FuncLit:
		child := b.litNode(owner, n, litN)
		b.addEdge(owner, child, CallLit, n.Pos())
		childLits := 0
		b.walkInto(child, n.Body, &childLits)

	case *ast.GoStmt:
		b.spawn(owner, n, litN)

	case *ast.CallExpr:
		b.callExpr(owner, n, litN, CallStatic)

	case *ast.Ident:
		if obj, ok := info.Uses[n].(*types.Func); ok {
			if callee := b.g.Lookup(funcObjID(obj)); callee != nil {
				b.addEdge(owner, callee, CallRef, n.Pos())
			}
		}

	case *ast.SelectorExpr:
		// A method value used as a value (s.run handed to a
		// supervisor); plain field selections just recurse into X.
		if obj, ok := info.Uses[n.Sel].(*types.Func); ok {
			if callee := b.g.Lookup(funcObjID(obj)); callee != nil {
				b.addEdge(owner, callee, CallRef, n.Pos())
			}
		}
		b.walkInto(owner, n.X, litN)
	}
}

// spawn resolves `go f(...)` / `go func(){...}()`: an asynchronous
// edge for the spawned body, synchronous traversal of the receiver and
// argument expressions (they evaluate on the spawning goroutine).
func (b *cgBuilder) spawn(owner *CGNode, g *ast.GoStmt, litN *int) {
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		child := b.litNode(owner, lit, litN)
		b.addEdge(owner, child, CallGo, g.Pos())
		childLits := 0
		b.walkInto(child, lit.Body, &childLits)
	} else {
		b.resolveEdges(owner, call, CallGo)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			b.walkInto(owner, sel.X, litN)
		}
	}
	for _, a := range call.Args {
		b.walkNodeOrInto(owner, a, litN)
	}
}

// callExpr resolves a direct call and then traverses its non-callee
// children (receiver chain and arguments).
func (b *cgBuilder) callExpr(owner *CGNode, call *ast.CallExpr, litN *int, _ CallKind) {
	b.resolveEdges(owner, call, CallStatic)
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Terminal callee ident: consumed by resolveEdges.
	case *ast.SelectorExpr:
		b.walkInto(owner, f.X, litN)
	case *ast.IndexExpr: // generic instantiation or func-valued element
		if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			_ = id // terminal; instantiation handled by resolveEdges
		} else {
			b.walkNodeOrInto(owner, f.X, litN)
		}
		b.walkNodeOrInto(owner, f.Index, litN)
	case *ast.IndexListExpr:
		b.walkNodeOrInto(owner, f.X, litN)
	default:
		// Curried call g()(), func literal call, etc.
		b.walkNodeOrInto(owner, f, litN)
	}
	for _, a := range call.Args {
		b.walkNodeOrInto(owner, a, litN)
	}
}

// walkNodeOrInto dispatches n directly when it is call-graph relevant,
// otherwise traverses its children.
func (b *cgBuilder) walkNodeOrInto(owner *CGNode, n ast.Node, litN *int) {
	switch n.(type) {
	case *ast.FuncLit, *ast.GoStmt, *ast.CallExpr, *ast.Ident, *ast.SelectorExpr:
		b.walkNode(owner, n, litN)
	default:
		b.walkInto(owner, n, litN)
	}
}

// resolveEdges adds the edge(s) for one call expression: static,
// concrete method, or CHA-expanded interface dispatch. baseKind is
// CallStatic for ordinary calls and CallGo for spawned ones.
func (b *cgBuilder) resolveEdges(owner *CGNode, call *ast.CallExpr, baseKind CallKind) {
	info := owner.Unit.Info
	obj := calleeFuncObj(call, info)
	if obj == nil {
		return // builtin, conversion, or call through a func value
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() == nil {
		if callee := b.g.Lookup(funcObjID(obj)); callee != nil {
			b.addEdge(owner, callee, baseKind, call.Pos())
		}
		return
	}
	recvT := sig.Recv().Type()
	if iface, isIface := recvT.Underlying().(*types.Interface); isIface {
		b.chaEdges(owner, call, recvT, iface, obj.Name(), baseKind)
		return
	}
	kind := CallMethod
	if baseKind == CallGo {
		kind = CallGo
	}
	if callee := b.g.Lookup(funcObjID(obj)); callee != nil {
		b.addEdge(owner, callee, kind, call.Pos())
	}
}

// calleeFuncObj extracts the called *types.Func, unwrapping generic
// instantiation syntax.
func calleeFuncObj(call *ast.CallExpr, info *types.Info) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		obj, _ := info.Uses[f].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		obj, _ := info.Uses[f.Sel].(*types.Func)
		return obj
	}
	return nil
}

// chaEdges applies class-hierarchy analysis to a call through a
// module-declared interface: one edge to method `method` of every
// module type whose method set satisfies the interface. Calls through
// foreign interfaces contribute nothing (see package comment).
func (b *cgBuilder) chaEdges(owner *CGNode, call *ast.CallExpr, recvT types.Type, iface *types.Interface, method string, baseKind CallKind) {
	named, ok := recvT.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !b.modPkgs[named.Obj().Pkg().Path()] {
		return
	}
	kind := CallIface
	if baseKind == CallGo {
		kind = CallGo
	}
	for _, impl := range b.impls {
		if !types.Implements(impl.named, iface) &&
			!types.Implements(types.NewPointer(impl.named), iface) {
			continue
		}
		id := FuncID(impl.pkg + ".(" + impl.named.Obj().Name() + ")." + method)
		if callee := b.g.Lookup(id); callee != nil {
			b.addEdge(owner, callee, kind, call.Pos())
		}
	}
}

// litNode creates the child node for a literal inside owner.
func (b *cgBuilder) litNode(owner *CGNode, lit *ast.FuncLit, litN *int) *CGNode {
	*litN++
	id := FuncID(fmt.Sprintf("%s$%d", owner.ID, *litN))
	child := &CGNode{ID: id, Unit: owner.Unit, Lit: lit, Body: lit.Body}
	b.g.Nodes[id] = child
	b.g.order = append(b.g.order, id)
	return child
}

// tarjanSCC computes strongly connected components over synchronous
// edges, returned callees-first (reverse topological order of the
// condensation). Iterative to keep deep call chains off the Go stack.
func tarjanSCC(g *CallGraph) [][]*CGNode {
	index := make(map[*CGNode]int)
	low := make(map[*CGNode]int)
	onStack := make(map[*CGNode]bool)
	var stack []*CGNode
	var sccs [][]*CGNode
	next := 0

	type frame struct {
		v    *CGNode
		edge int
	}
	var visit func(root *CGNode)
	visit = func(root *CGNode) {
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.edge < len(f.v.Out) {
				e := f.v.Out[f.edge]
				f.edge++
				if !e.Kind.Synchronous() {
					continue
				}
				w := e.Callee
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v is done: pop and propagate lowlink.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []*CGNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}

	for _, n := range g.NodesInOrder() {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return sccs
}
