package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Per-function summaries over the call graph: what each body does that
// the interprocedural analyzers care about — locks acquired and
// released (abstracted to lock classes), struct-field accesses with the
// lock context they happen under, nondeterminism sources reached, calls
// through func values that cannot be resolved, goroutines spawned.
// Local facts come from one forward dataflow over the function's CFG;
// the two interprocedural facts — transitive lock acquisitions and the
// lock set guaranteed held on entry — come from fixpoints over the
// graph's SCC condensation (bottom-up and top-down respectively), so
// recursion converges instead of diverging.

// LockClass abstracts a mutex to its declaration site: "pkg.T.f" for a
// mutex field f of struct T, "pkg.v" for a package-level mutex var.
// The abstraction is instance-insensitive — every element of a slice of
// shards shares one class — which is what makes lock-order facts
// finite; it can merge locks that are never held together (documented
// precision trade-off, DESIGN.md §15). Locals and unresolvable
// receivers get no class and are invisible to lockorder.
type LockClass string

// LockSite is one acquire or release of a classified mutex.
type LockSite struct {
	Class LockClass
	Pos   token.Pos
	Read  bool // RLock/RUnlock
	// HeldMay lists the classes that may already be held when this
	// site executes (acquire sites only): the local pair source.
	HeldMay []LockClass
}

// FieldAccess is one read or write of a module struct field.
type FieldAccess struct {
	Class  string // "pkg.T.f"
	Struct string // "pkg.T"
	Pos    token.Pos
	Write  bool
	Atomic bool // sync/atomic call on &f, or f's type lives in sync/atomic
	// Fresh marks accesses through a local variable that only ever
	// holds freshly allocated memory (s := &T{...}; s.f = v):
	// constructor initialization is unshared by construction.
	Fresh bool
	// HeldMust / HeldMay are the lock classes held locally at the
	// access; callers' entry context is added by the analyzers via
	// SummarySet.EntryMust.
	HeldMust []LockClass
	HeldMay  []LockClass
}

// NondetSite is one local source of nondeterminism.
type NondetSite struct {
	Kind   string // "walltime" | "globalrand" | "maporder"
	Pos    token.Pos
	Detail string
}

// UnknownCall is a call the graph could not resolve — a func-typed
// parameter or field — whose effects are unknown. puredet reports
// these as unprovable rather than silently assuming purity.
type UnknownCall struct {
	Pos  token.Pos
	Desc string
}

// acqTrace witnesses one transitive lock acquisition: where it bottoms
// out and the call path from the summarized function to that site.
type acqTrace struct {
	Pos  token.Pos
	Path []TraceStep
}

// Summary holds everything the analyzers need to know about one
// function without re-reading its body.
type Summary struct {
	ID       FuncID
	Acquires []LockSite
	Releases []LockSite
	Fields   []FieldAccess
	Nondet   []NondetSite
	Unknown  []UnknownCall
	Spawns   []token.Pos

	// TransAcquires maps each lock class this function may acquire —
	// directly or through any synchronous callee — to a witness trace.
	TransAcquires map[LockClass]*acqTrace
	// EntryMust is the set of lock classes held on entry along every
	// visible call path (empty for roots).
	EntryMust []LockClass
}

// SummarySet is the module-wide summary table plus the shared
// registries the analyzers consult.
type SummarySet struct {
	Fset *token.FileSet
	ByID map[FuncID]*Summary
	// MutexFields maps a struct class "pkg.T" to the lock classes of
	// its sync.Mutex / sync.RWMutex fields (the sharedstate seeds).
	MutexFields map[string][]LockClass
	// DetRoots lists functions annotated //lint:deterministic, in
	// graph order.
	DetRoots []FuncID
}

// Get returns the summary for id, or nil.
func (ss *SummarySet) Get(id FuncID) *Summary { return ss.ByID[id] }

// ComputeSummaries runs the local pass over every graph node, then the
// bottom-up transitive-acquire fixpoint and the top-down entry-held
// fixpoint.
func ComputeSummaries(fset *token.FileSet, g *CallGraph) *SummarySet {
	ss := &SummarySet{
		Fset:        fset,
		ByID:        make(map[FuncID]*Summary, len(g.Nodes)),
		MutexFields: make(map[string][]LockClass),
	}
	sm := &summarizer{g: g, fset: fset, ss: ss, modPkgs: make(map[string]bool), passes: make(map[*ModuleUnit]*Pass)}
	seenPkg := make(map[string]bool)
	for _, n := range g.NodesInOrder() {
		sm.modPkgs[n.Unit.Pkg.Path()] = true
	}
	for _, n := range g.NodesInOrder() {
		if !seenPkg[n.Unit.Pkg.Path()] {
			seenPkg[n.Unit.Pkg.Path()] = true
			sm.collectMutexFields(n.Unit)
		}
		ss.ByID[n.ID] = sm.localSummary(n)
		if n.Decl != nil && hasDeterministicDirective(n.Decl) {
			ss.DetRoots = append(ss.DetRoots, n.ID)
		}
	}
	sm.transitiveAcquires()
	sm.entryHeld()
	return ss
}

// hasDeterministicDirective reports whether the declaration carries a
// //lint:deterministic annotation in its doc comment.
func hasDeterministicDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//lint:deterministic") {
			return true
		}
	}
	return false
}

type summarizer struct {
	g       *CallGraph
	fset    *token.FileSet
	ss      *SummarySet
	modPkgs map[string]bool
	passes  map[*ModuleUnit]*Pass
}

// passFor fabricates the unit-analyzer Pass shape for taint reuse.
func (sm *summarizer) passFor(u *ModuleUnit) *Pass {
	if p, ok := sm.passes[u]; ok {
		return p
	}
	p := &Pass{Fset: sm.fset, Files: u.Files, Pkg: u.Pkg, TypesInfo: u.Info}
	sm.passes[u] = p
	return p
}

// collectMutexFields registers u's struct-declared mutex fields.
func (sm *summarizer) collectMutexFields(u *ModuleUnit) {
	scope := u.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		structClass := u.Pkg.Path() + "." + tn.Name()
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isSyncMutexType(f.Type()) {
				cls := LockClass(structClass + "." + f.Name())
				sm.ss.MutexFields[structClass] = append(sm.ss.MutexFields[structClass], cls)
			}
		}
	}
}

// --- local pass ----------------------------------------------------------

// heldState is the forward dataflow fact: which lock classes may/must
// be held at a program point.
type heldState struct {
	may  map[LockClass]bool
	must map[LockClass]bool
}

func newHeldState() *heldState {
	return &heldState{may: map[LockClass]bool{}, must: map[LockClass]bool{}}
}

func (h *heldState) clone() *heldState {
	c := newHeldState()
	for k := range h.may {
		c.may[k] = true
	}
	for k := range h.must {
		c.must[k] = true
	}
	return c
}

// merge joins pred-out o into h (may: union, must: intersection),
// reporting change.
func (h *heldState) merge(o *heldState) bool {
	changed := false
	for k := range o.may {
		if !h.may[k] {
			h.may[k] = true
			changed = true
		}
	}
	for k := range h.must {
		if !o.must[k] {
			delete(h.must, k)
			changed = true
		}
	}
	return changed
}

func sortedClasses(m map[LockClass]bool) []LockClass {
	if len(m) == 0 {
		return nil
	}
	out := make([]LockClass, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// localSummary computes node n's local facts.
func (sm *summarizer) localSummary(n *CGNode) *Summary {
	s := &Summary{ID: n.ID, TransAcquires: make(map[LockClass]*acqTrace)}
	cfg := BuildCFG(n.Body)

	// Lock dataflow to fixpoint over block entry states.
	in := map[*Block]*heldState{cfg.Entry: newHeldState()}
	work := []*Block{cfg.Entry}
	inWork := map[*Block]bool{cfg.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work, inWork[b] = work[1:], false
		out := in[b].clone()
		for _, node := range b.Nodes {
			sm.heldTransfer(n, out, node, nil)
		}
		for _, succ := range b.Succs {
			si, seen := in[succ]
			if !seen {
				in[succ] = out.clone()
			} else if !si.merge(out) {
				continue
			}
			if !inWork[succ] {
				work = append(work, succ)
				inWork[succ] = true
			}
		}
	}

	// Recording pass: replay each block from its (stable) entry state,
	// snapshotting lock context onto acquire sites, call edges, and
	// field accesses as they appear.
	edgesAt := make(map[token.Pos][]*CallEdge, len(n.Out))
	for _, e := range n.Out {
		edgesAt[e.Pos] = append(edgesAt[e.Pos], e)
		if e.Kind == CallGo {
			s.Spawns = append(s.Spawns, e.Pos)
		}
	}
	fresh := sm.freshLocals(n)
	for _, b := range cfg.Blocks {
		st, ok := in[b]
		if !ok {
			st = newHeldState() // unreachable island
		} else {
			st = st.clone()
		}
		for _, node := range b.Nodes {
			sm.recordNode(n, s, st, node, edgesAt, fresh)
			sm.heldTransfer(n, st, node, nil)
		}
	}

	s.Nondet = sm.nondetSites(n)
	s.Unknown = sm.unknownCalls(n)
	sortSummary(s)
	return s
}

// heldTransfer applies node's direct mutex operations to st. Lock ops
// under a defer run at function exit, not here, so a DeferStmt leaves
// the state untouched — which models the dominant
// `mu.Lock(); defer mu.Unlock()` idiom exactly: the body stays "held".
func (sm *summarizer) heldTransfer(n *CGNode, st *heldState, node ast.Node, onAcquire func(LockSite)) {
	if _, isDefer := node.(*ast.DeferStmt); isDefer {
		return
	}
	walkShallowParts(node, func(sub ast.Node) {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return
		}
		op, read, isLock := mutexOp(n.Unit.Info, call)
		if !isLock {
			return
		}
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		cls := sm.lockClass(n.Unit, sel)
		if cls == "" {
			return
		}
		switch op {
		case lockAcquire:
			if onAcquire != nil {
				onAcquire(LockSite{Class: cls, Pos: call.Pos(), Read: read, HeldMay: sortedClasses(st.may)})
			}
			st.may[cls] = true
			st.must[cls] = true
		case lockRelease:
			delete(st.may, cls)
			delete(st.must, cls)
		}
	})
}

type lockOp int

const (
	lockAcquire lockOp = iota
	lockRelease
)

// mutexOp recognizes sync.Mutex / sync.RWMutex / sync.Locker lock and
// unlock calls.
func mutexOp(info *types.Info, call *ast.CallExpr) (op lockOp, read, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, false, false
	}
	obj, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return 0, false, false
	}
	switch obj.Name() {
	case "Lock", "TryLock":
		return lockAcquire, false, true
	case "RLock", "TryRLock":
		return lockAcquire, true, true
	case "Unlock":
		return lockRelease, false, true
	case "RUnlock":
		return lockRelease, true, true
	}
	return 0, false, false
}

// lockClass resolves the receiver of a mutex method call to its class.
// sel is the full `x.Lock` selector.
func (sm *summarizer) lockClass(u *ModuleUnit, sel *ast.SelectorExpr) LockClass {
	// Embedded mutex (type T struct { sync.Mutex }; t.Lock()): the
	// selection path runs through the embedded field.
	if s, ok := u.Info.Selections[sel]; ok && len(s.Index()) > 1 {
		named := namedOf(s.Recv())
		if named == nil {
			return ""
		}
		st, isStruct := named.Underlying().(*types.Struct)
		if !isStruct {
			return ""
		}
		idx := s.Index()[0]
		if idx >= st.NumFields() {
			return ""
		}
		return sm.fieldLockClass(named, st.Field(idx))
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		fobj, isVar := u.Info.Uses[x.Sel].(*types.Var)
		if !isVar || !fobj.IsField() {
			return ""
		}
		named := namedOf(u.Info.TypeOf(x.X))
		if named == nil {
			return ""
		}
		return sm.fieldLockClass(named, fobj)
	case *ast.Ident:
		if v, isVar := u.Info.Uses[x].(*types.Var); isVar && !v.IsField() &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && sm.modPkgs[v.Pkg().Path()] {
			return LockClass(v.Pkg().Path() + "." + v.Name())
		}
	}
	return ""
}

func (sm *summarizer) fieldLockClass(named *types.Named, f *types.Var) LockClass {
	tn := named.Obj()
	if tn.Pkg() == nil || !sm.modPkgs[tn.Pkg().Path()] {
		return ""
	}
	return LockClass(tn.Pkg().Path() + "." + tn.Name() + "." + f.Name())
}

// namedOf digs the *types.Named behind t, through pointers and aliases.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// isSyncMutexType reports whether t (possibly *T) is sync.Mutex or
// sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// isSyncPrimitive reports whether a field of this type is a
// synchronization object rather than shared data.
func isSyncPrimitive(t types.Type) bool {
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return true
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
		return true
	}
	return false
}

// isAtomicType reports whether t is one of sync/atomic's value types
// (atomic.Int64, atomic.Pointer[T], ...), whose every access is atomic.
func isAtomicType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// recordNode snapshots lock context onto n's acquire sites and
// outgoing call edges, and collects its field accesses, all in source
// order within the node.
func (sm *summarizer) recordNode(n *CGNode, s *Summary, st *heldState, node ast.Node, edgesAt map[token.Pos][]*CallEdge, fresh map[types.Object]bool) {
	// Acquire sites, with the classes already held when they fire.
	stProbe := st.clone()
	sm.heldTransfer(n, stProbe, node, func(site LockSite) {
		s.Acquires = append(s.Acquires, site)
	})
	// Releases (recorded without context; deferred releases excluded
	// from the held dataflow but still listed as facts).
	walkShallowParts(node, func(sub ast.Node) {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return
		}
		if op, read, isLock := mutexOp(n.Unit.Info, call); isLock && op == lockRelease {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if cls := sm.lockClass(n.Unit, sel); cls != "" {
				s.Releases = append(s.Releases, LockSite{Class: cls, Pos: call.Pos(), Read: read})
			}
		}
	})

	// Call-edge lock context.
	may, must := sortedClasses(st.may), sortedClasses(st.must)
	stamp := func(pos token.Pos) {
		for _, e := range edgesAt[pos] {
			e.HeldMay, e.HeldMust = may, must
		}
	}
	walkShallowParts(node, func(sub ast.Node) {
		if call, ok := sub.(*ast.CallExpr); ok {
			stamp(call.Pos())
		}
	})
	// Function literals are opaque to walkShallow; their CallLit/CallGo
	// edges are keyed by the literal's own position.
	stampLits(node, stamp)

	sm.fieldAccesses(n, s, st, node, fresh)
}

// stampLits visits the first-level function literals of node (without
// entering them) and hands their positions to fn.
func stampLits(node ast.Node, fn func(token.Pos)) {
	ast.Inspect(node, func(sub ast.Node) bool {
		if lit, ok := sub.(*ast.FuncLit); ok && sub != node {
			fn(lit.Pos())
			return false
		}
		return true
	})
}

// fieldAccesses collects node's reads/writes of module struct fields.
func (sm *summarizer) fieldAccesses(n *CGNode, s *Summary, st *heldState, node ast.Node, fresh map[types.Object]bool) {
	info := n.Unit.Info
	must, may := sortedClasses(st.must), sortedClasses(st.may)
	recorded := make(map[*ast.SelectorExpr]bool)
	add := func(sel *ast.SelectorExpr, write, atomic bool) {
		if recorded[sel] {
			return
		}
		recorded[sel] = true
		cls, structCls, ok := sm.fieldClass(n.Unit, sel)
		if !ok {
			return
		}
		root := rootIdent(sel)
		isFresh := false
		if root != nil {
			if obj := identObject(info, root); obj != nil && fresh[obj] {
				isFresh = true
			}
		}
		ft := info.TypeOf(sel)
		s.Fields = append(s.Fields, FieldAccess{
			Class:    cls,
			Struct:   structCls,
			Pos:      sel.Sel.Pos(),
			Write:    write,
			Atomic:   atomic || isAtomicType(ft),
			Fresh:    isFresh,
			HeldMust: must,
			HeldMay:  may,
		})
	}

	// sync/atomic calls on &x.f are atomic accesses; &x.f anywhere else
	// is a conservative write (the address escapes).
	walkShallowParts(node, func(sub ast.Node) {
		switch sub := sub.(type) {
		case *ast.CallExpr:
			pkg, recvName, name, ok := callee(sm.passFor(n.Unit), sub)
			if ok && recvName == "" && pkg == "sync/atomic" && len(sub.Args) > 0 {
				if sel := addrOfSelector(sub.Args[0]); sel != nil {
					add(sel, !strings.HasPrefix(name, "Load"), true)
				}
			}
		case *ast.UnaryExpr:
			if sub.Op == token.AND {
				if sel, ok := ast.Unparen(sub.X).(*ast.SelectorExpr); ok {
					if !underAtomicCall(node, sub, info) {
						add(sel, true, false)
					}
				}
			}
		}
	})
	// Assignment / inc-dec writes.
	switch node := node.(type) {
	case *ast.AssignStmt:
		for _, lhs := range node.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				add(sel, true, false)
			}
		}
	case *ast.IncDecStmt:
		if sel, ok := ast.Unparen(node.X).(*ast.SelectorExpr); ok {
			add(sel, true, false)
		}
	}
	// Everything else is a read.
	walkShallowParts(node, func(sub ast.Node) {
		if sel, ok := sub.(*ast.SelectorExpr); ok {
			add(sel, false, false)
		}
	})
}

// addrOfSelector unwraps &x.f to the selector, or nil.
func addrOfSelector(e ast.Expr) *ast.SelectorExpr {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, _ := ast.Unparen(u.X).(*ast.SelectorExpr)
	return sel
}

// underAtomicCall reports whether unary &expr appears as an argument of
// a sync/atomic call within node (already handled by the atomic case).
func underAtomicCall(node ast.Node, target *ast.UnaryExpr, info *types.Info) bool {
	found := false
	walkShallowParts(node, func(sub ast.Node) {
		call, ok := sub.(*ast.CallExpr)
		if !ok || found {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return
		}
		for _, a := range call.Args {
			if ast.Unparen(a) == target {
				found = true
			}
		}
	})
	return found
}

// fieldClass resolves a field selection to ("pkg.T.f", "pkg.T"),
// walking promoted-field paths to the struct that actually declares
// the field. Sync primitives (mutexes, channels, waitgroups) are not
// data and report ok=false.
func (sm *summarizer) fieldClass(u *ModuleUnit, sel *ast.SelectorExpr) (cls, structCls string, ok bool) {
	fobj, isVar := u.Info.Uses[sel.Sel].(*types.Var)
	if !isVar || !fobj.IsField() {
		return "", "", false
	}
	var named *types.Named
	if s, has := u.Info.Selections[sel]; has && len(s.Index()) > 1 {
		// Promoted: walk the embedding path to the declaring struct.
		t := s.Recv()
		idx := s.Index()
		for i, k := range idx {
			n := namedOf(t)
			if n == nil {
				return "", "", false
			}
			st, isStruct := n.Underlying().(*types.Struct)
			if !isStruct || k >= st.NumFields() {
				return "", "", false
			}
			if i == len(idx)-1 {
				named = n
				break
			}
			t = st.Field(k).Type()
		}
	} else {
		named = namedOf(u.Info.TypeOf(sel.X))
	}
	if named == nil {
		return "", "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil || !sm.modPkgs[tn.Pkg().Path()] {
		return "", "", false
	}
	if isSyncPrimitive(fobj.Type()) {
		return "", "", false
	}
	structCls = tn.Pkg().Path() + "." + tn.Name()
	return structCls + "." + fobj.Name(), structCls, true
}

// freshLocals finds local variables that only ever hold freshly
// allocated memory: every assignment's RHS is a composite literal,
// &composite, or new(T). Writes through such variables initialize
// unshared state and are exempt from guardedness questions.
func (sm *summarizer) freshLocals(n *CGNode) map[types.Object]bool {
	info := n.Unit.Info
	assigned := make(map[types.Object][]ast.Expr)
	aliased := make(map[types.Object]bool)
	ast.Inspect(n.Body, func(sub ast.Node) bool {
		if _, isLit := sub.(*ast.FuncLit); isLit {
			return false
		}
		switch sub := sub.(type) {
		case *ast.AssignStmt:
			for i, lhs := range sub.Lhs {
				id, isID := ast.Unparen(lhs).(*ast.Ident)
				if !isID || id.Name == "_" {
					continue
				}
				obj := identObject(info, id)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(sub.Rhs) == len(sub.Lhs) {
					rhs = sub.Rhs[i]
				}
				assigned[obj] = append(assigned[obj], rhs)
			}
		case *ast.UnaryExpr:
			// &x escaping disqualifies freshness tracking of x's shape.
			if sub.Op == token.AND {
				if root := rootIdent(sub.X); root != nil {
					if obj := identObject(info, root); obj != nil {
						if _, isSel := ast.Unparen(sub.X).(*ast.SelectorExpr); !isSel {
							aliased[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	fresh := make(map[types.Object]bool)
	for obj, rhss := range assigned {
		if aliased[obj] || len(rhss) == 0 {
			continue
		}
		all := true
		for _, rhs := range rhss {
			if !isFreshAlloc(rhs) {
				all = false
				break
			}
		}
		if all {
			fresh[obj] = true
		}
	}
	return fresh
}

// isFreshAlloc recognizes T{...}, &T{...}, and new(T).
func isFreshAlloc(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isComposite := ast.Unparen(e.X).(*ast.CompositeLit)
			return isComposite
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// --- nondeterminism sources ----------------------------------------------

// wallClockProducers extends the walltime analyzer's source list with
// the timer constructors: a select arm racing a timer makes results
// timing-dependent even when the Time value itself never escapes.
var wallClockProducers = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// nondetSites collects node n's local nondeterminism sources:
// wall-clock reads, global math/rand calls, and map-iteration order
// escaping past the unit maporder exemptions (sorts, commutative
// folds, per-key stores).
func (sm *summarizer) nondetSites(n *CGNode) []NondetSite {
	pass := sm.passFor(n.Unit)
	info := n.Unit.Info
	var out []NondetSite

	ast.Inspect(n.Body, func(sub ast.Node) bool {
		if _, isLit := sub.(*ast.FuncLit); isLit {
			return false // owned by the literal's own node
		}
		switch sub := sub.(type) {
		case *ast.CallExpr:
			if pkg, recv, name, ok := callee(pass, sub); ok && recv == "" && pkg == "time" && wallClockProducers[name] {
				out = append(out, NondetSite{Kind: "walltime", Pos: sub.Pos(), Detail: "time." + name})
			}
		case *ast.SelectorExpr:
			id, isID := sub.X.(*ast.Ident)
			if !isID {
				return true
			}
			pn, isPkg := info.Uses[id].(*types.PkgName)
			if !isPkg {
				return true
			}
			path := pn.Imported().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if obj, isFn := info.Uses[sub.Sel].(*types.Func); isFn && !globalRandAllowed[obj.Name()] {
				out = append(out, NondetSite{Kind: "globalrand", Pos: sub.Pos(), Detail: "rand." + obj.Name()})
			}
		}
		return true
	})

	var owner ast.Node
	if n.Decl != nil {
		owner = n.Decl
	} else {
		owner = n.Lit
	}
	for _, f := range runTaintBody(pass, mapOrderTaintSpec(), owner, n.Body) {
		out = append(out, NondetSite{Kind: "maporder", Pos: f.pos, Detail: "map-iteration order reaches " + f.what})
	}
	return out
}

// --- unknown calls --------------------------------------------------------

// unknownCalls lists the calls whose target the graph cannot see: calls
// through func values with no benign local origin. Benign origins — a
// function literal, a named function or method value, or the result of
// a call with a resolvable callee — are already attributed through
// CallLit/CallRef/call edges on whatever produced them.
func (sm *summarizer) unknownCalls(n *CGNode) []UnknownCall {
	info := n.Unit.Info
	var out []UnknownCall
	ast.Inspect(n.Body, func(sub ast.Node) bool {
		if _, isLit := sub.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if _, isLit := fun.(*ast.FuncLit); isLit {
			return true // CallLit edge exists
		}
		if calleeFuncObj(call, info) != nil {
			return true // resolved: static, method, or interface call
		}
		// Builtins and conversions are not calls through values.
		if id, isID := fun.(*ast.Ident); isID {
			if v, isVar := info.Uses[id].(*types.Var); isVar {
				if !sm.benignFuncVar(n, v) {
					out = append(out, UnknownCall{Pos: call.Pos(), Desc: "call through func value " + id.Name})
				}
			}
			return true
		}
		if sel, isSel := fun.(*ast.SelectorExpr); isSel {
			if _, isPkg := info.Uses[identOrNil(sel.X)].(*types.PkgName); isPkg {
				return true // qualified conversion (pkg.Type(x))
			}
			if tv, has := info.Types[sel]; has && tv.IsType() {
				return true
			}
			out = append(out, UnknownCall{Pos: call.Pos(), Desc: "call through func value " + exprString(sel)})
			return true
		}
		if tv, has := info.Types[fun]; has && tv.IsType() {
			return true // conversion through a type expression
		}
		out = append(out, UnknownCall{Pos: call.Pos(), Desc: "call through computed function value"})
		return true
	})
	return out
}

func identOrNil(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// benignFuncVar reports whether local func-typed variable v only ever
// holds values whose effects the graph already attributes elsewhere:
// function literals (CallLit edges), named function or method
// references (CallRef edges), or the result of a resolvable call
// (attributed to the producing function, which owns the literal it
// returned).
func (sm *summarizer) benignFuncVar(n *CGNode, v *types.Var) bool {
	info := n.Unit.Info
	found := false
	benign := true
	ast.Inspect(n.Body, func(sub ast.Node) bool {
		assign, ok := sub.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, isID := ast.Unparen(lhs).(*ast.Ident)
			if !isID || identObject(info, id) != v {
				continue
			}
			if len(assign.Rhs) != len(assign.Lhs) {
				benign = false // multi-value unpack: origin unknown
				found = true
				continue
			}
			found = true
			rhs := ast.Unparen(assign.Rhs[i])
			switch rhs := rhs.(type) {
			case *ast.FuncLit:
			case *ast.Ident:
				if _, isFn := info.Uses[rhs].(*types.Func); !isFn {
					benign = false
				}
			case *ast.SelectorExpr:
				if _, isFn := info.Uses[rhs.Sel].(*types.Func); !isFn {
					benign = false
				}
			case *ast.CallExpr:
				if calleeFuncObj(rhs, info) == nil {
					benign = false
				}
			default:
				benign = false
			}
		}
		return true
	})
	return found && benign
}

// --- interprocedural fixpoints -------------------------------------------

// maxTracePath bounds witness path length; beyond it the trace is
// truncated (the finding is still reported).
const maxTracePath = 8

// transitiveAcquires propagates lock acquisitions bottom-up over the
// SCC condensation. Within an SCC (mutual recursion) it iterates to a
// fixpoint; the class domain is finite so it terminates.
func (sm *summarizer) transitiveAcquires() {
	for _, n := range sm.g.NodesInOrder() {
		s := sm.ss.ByID[n.ID]
		for _, a := range s.Acquires {
			if _, have := s.TransAcquires[a.Class]; !have {
				s.TransAcquires[a.Class] = &acqTrace{
					Pos:  a.Pos,
					Path: []TraceStep{{Pos: a.Pos, Message: string(n.ID) + " acquires " + shortLockClass(a.Class)}},
				}
			}
		}
	}
	for _, scc := range sm.g.SCCs { // callees before callers
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				s := sm.ss.ByID[n.ID]
				for _, e := range n.Out {
					if !e.Kind.Synchronous() {
						continue
					}
					cs := sm.ss.ByID[e.Callee.ID]
					for cls, t := range cs.TransAcquires {
						if _, have := s.TransAcquires[cls]; have {
							continue
						}
						path := []TraceStep{{Pos: e.Pos, Message: string(n.ID) + " calls " + string(e.Callee.ID)}}
						if len(t.Path) < maxTracePath {
							path = append(path, t.Path...)
						} else {
							path = append(path, t.Path[:maxTracePath]...)
						}
						s.TransAcquires[cls] = &acqTrace{Pos: t.Pos, Path: path}
						changed = true
					}
				}
			}
		}
	}
}

// entryHeld computes each function's entry-must lock set: the classes
// held along EVERY synchronous call path from a root. Roots enter
// lock-free; everything else intersects (caller entry ∪ caller local
// held at the site) over its in-edges. The lattice is finite and the
// transfer monotone (sets only shrink from TOP), so the worklist
// terminates. This is what lets `fooLocked` helpers see their callers'
// lock context instead of looking bare.
func (sm *summarizer) entryHeld() {
	nodes := sm.g.NodesInOrder()
	const top = -1
	entry := make(map[FuncID]map[LockClass]bool, len(nodes))
	state := make(map[FuncID]int, len(nodes)) // top marker
	for _, n := range nodes {
		if n.Root {
			entry[n.ID] = map[LockClass]bool{}
		} else {
			state[n.ID] = top
		}
	}
	changedAny := true
	for iter := 0; changedAny && iter < len(nodes)+2; iter++ {
		changedAny = false
		for _, n := range nodes {
			if n.Root {
				continue
			}
			var acc map[LockClass]bool
			sawCaller := false
			for _, e := range n.In {
				if !e.Kind.Synchronous() {
					continue
				}
				callerEntry, ok := entry[e.Caller.ID]
				if !ok {
					continue // caller still TOP: ignore this round
				}
				held := make(map[LockClass]bool, len(callerEntry)+len(e.HeldMust))
				for c := range callerEntry {
					held[c] = true
				}
				for _, c := range e.HeldMust {
					held[c] = true
				}
				if !sawCaller {
					acc, sawCaller = held, true
					continue
				}
				for c := range acc {
					if !held[c] {
						delete(acc, c)
					}
				}
			}
			if !sawCaller {
				continue // all callers TOP (or none): stay TOP this round
			}
			prev, had := entry[n.ID]
			if !had || !sameClassSet(prev, acc) {
				entry[n.ID] = acc
				changedAny = true
			}
		}
	}
	for _, n := range nodes {
		s := sm.ss.ByID[n.ID]
		if e, ok := entry[n.ID]; ok {
			s.EntryMust = sortedClasses(e)
		}
		// Never-computed (unreachable, non-root): conservatively empty.
	}
}

func sameClassSet(a, b map[LockClass]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if !b[c] {
			return false
		}
	}
	return true
}

// shortLockClass trims the module path prefix for readable messages:
// "acsel/internal/query.Service.mu" -> "query.Service.mu".
func shortLockClass(c LockClass) string {
	s := string(c)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// sortSummary puts every section into deterministic order.
func sortSummary(s *Summary) {
	sort.Slice(s.Acquires, func(i, j int) bool { return lockSiteLess(s.Acquires[i], s.Acquires[j]) })
	sort.Slice(s.Releases, func(i, j int) bool { return lockSiteLess(s.Releases[i], s.Releases[j]) })
	sort.Slice(s.Fields, func(i, j int) bool {
		a, b := s.Fields[i], s.Fields[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Class < b.Class
	})
	sort.Slice(s.Nondet, func(i, j int) bool {
		a, b := s.Nondet[i], s.Nondet[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Kind < b.Kind
	})
	sort.Slice(s.Unknown, func(i, j int) bool { return s.Unknown[i].Pos < s.Unknown[j].Pos })
	sort.Slice(s.Spawns, func(i, j int) bool { return s.Spawns[i] < s.Spawns[j] })
}

func lockSiteLess(a, b LockSite) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	return a.Class < b.Class
}

// --- textual summary format ----------------------------------------------

// The line-based encoding below is the summaries' interchange format:
// `acsel-lint -summaries` dumps it, FuzzSummaryRoundTrip holds it
// canonical (decode ∘ encode ∘ decode is the identity on valid input).

// EncodeSummary renders s in the canonical line format. Positions are
// raw token.Pos offsets: stable within one FileSet, opaque otherwise.
func EncodeSummary(s *Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "summary %s\n", s.ID)
	var lines []string
	emit := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for _, a := range s.Acquires {
		emit("acquire %s %d %s held=%s", a.Class, a.Pos, rwFlag(a.Read), joinClasses(a.HeldMay))
	}
	for _, r := range s.Releases {
		emit("release %s %d %s", r.Class, r.Pos, rwFlag(r.Read))
	}
	for _, f := range s.Fields {
		emit("field %s %d %s must=%s may=%s", f.Class, f.Pos, accessFlags(f), joinClasses(f.HeldMust), joinClasses(f.HeldMay))
	}
	for _, nd := range s.Nondet {
		emit("nondet %s %d %s", nd.Kind, nd.Pos, nd.Detail)
	}
	for _, u := range s.Unknown {
		emit("unknown %d %s", u.Pos, u.Desc)
	}
	for _, p := range s.Spawns {
		emit("spawn %d", p)
	}
	for _, c := range sortedTransClasses(s.TransAcquires) {
		emit("trans %s %d", c, s.TransAcquires[c].Pos)
	}
	if len(s.EntryMust) > 0 {
		emit("entry %s", joinClasses(s.EntryMust))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedTransClasses(m map[LockClass]*acqTrace) []LockClass {
	out := make([]LockClass, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func rwFlag(read bool) string {
	if read {
		return "r"
	}
	return "w"
}

func accessFlags(f FieldAccess) string {
	flags := "r"
	if f.Write {
		flags = "w"
	}
	if f.Atomic {
		flags += "a"
	}
	if f.Fresh {
		flags += "f"
	}
	return flags
}

func joinClasses(cs []LockClass) string {
	if len(cs) == 0 {
		return "-"
	}
	ss := make([]string, len(cs))
	for i, c := range cs {
		ss[i] = string(c)
	}
	return strings.Join(ss, ",")
}

func splitClasses(s string) ([]LockClass, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]LockClass, 0, len(parts))
	for _, p := range parts {
		if p == "" || p == "-" {
			return nil, fmt.Errorf("lint: empty lock class in %q", s)
		}
		out = append(out, LockClass(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// DecodeSummary parses the canonical format back into a Summary,
// canonicalizing section order as it goes. Derived trans/entry lines
// are restored as facts (with empty witness paths).
func DecodeSummary(text string) (*Summary, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("lint: empty summary")
	}
	header := lines[0]
	id, ok := strings.CutPrefix(header, "summary ")
	if !ok || id == "" || strings.ContainsAny(id, " \t") {
		return nil, fmt.Errorf("lint: bad summary header %q", header)
	}
	s := &Summary{ID: FuncID(id), TransAcquires: make(map[LockClass]*acqTrace)}
	parsePos := func(tok string) (token.Pos, error) {
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 {
			return token.NoPos, fmt.Errorf("lint: bad position %q", tok)
		}
		return token.Pos(v), nil
	}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, fmt.Errorf("lint: blank summary line")
		}
		switch fields[0] {
		case "acquire":
			if len(fields) != 5 || !strings.HasPrefix(fields[4], "held=") {
				return nil, fmt.Errorf("lint: bad acquire line %q", line)
			}
			pos, err := parsePos(fields[2])
			if err != nil {
				return nil, err
			}
			if fields[3] != "r" && fields[3] != "w" {
				return nil, fmt.Errorf("lint: bad rw flag %q", fields[3])
			}
			held, err := splitClasses(strings.TrimPrefix(fields[4], "held="))
			if err != nil {
				return nil, err
			}
			s.Acquires = append(s.Acquires, LockSite{Class: LockClass(fields[1]), Pos: pos, Read: fields[3] == "r", HeldMay: held})
		case "release":
			if len(fields) != 4 {
				return nil, fmt.Errorf("lint: bad release line %q", line)
			}
			pos, err := parsePos(fields[2])
			if err != nil {
				return nil, err
			}
			if fields[3] != "r" && fields[3] != "w" {
				return nil, fmt.Errorf("lint: bad rw flag %q", fields[3])
			}
			s.Releases = append(s.Releases, LockSite{Class: LockClass(fields[1]), Pos: pos, Read: fields[3] == "r"})
		case "field":
			if len(fields) != 6 || !strings.HasPrefix(fields[4], "must=") || !strings.HasPrefix(fields[5], "may=") {
				return nil, fmt.Errorf("lint: bad field line %q", line)
			}
			pos, err := parsePos(fields[2])
			if err != nil {
				return nil, err
			}
			flags := fields[3]
			if len(flags) == 0 || (flags[0] != 'r' && flags[0] != 'w') {
				return nil, fmt.Errorf("lint: bad access flags %q", flags)
			}
			for _, c := range flags[1:] {
				if c != 'a' && c != 'f' {
					return nil, fmt.Errorf("lint: bad access flags %q", flags)
				}
			}
			must, err := splitClasses(strings.TrimPrefix(fields[4], "must="))
			if err != nil {
				return nil, err
			}
			may, err := splitClasses(strings.TrimPrefix(fields[5], "may="))
			if err != nil {
				return nil, err
			}
			cls := fields[1]
			dot := strings.LastIndex(cls, ".")
			if dot <= 0 {
				return nil, fmt.Errorf("lint: bad field class %q", cls)
			}
			s.Fields = append(s.Fields, FieldAccess{
				Class:    cls,
				Struct:   cls[:dot],
				Pos:      pos,
				Write:    flags[0] == 'w',
				Atomic:   strings.ContainsRune(flags, 'a'),
				Fresh:    strings.ContainsRune(flags, 'f'),
				HeldMust: must,
				HeldMay:  may,
			})
		case "nondet":
			if len(fields) < 3 {
				return nil, fmt.Errorf("lint: bad nondet line %q", line)
			}
			switch fields[1] {
			case "walltime", "globalrand", "maporder":
			default:
				return nil, fmt.Errorf("lint: bad nondet kind %q", fields[1])
			}
			pos, err := parsePos(fields[2])
			if err != nil {
				return nil, err
			}
			detail := ""
			if len(fields) > 3 {
				detail = strings.Join(fields[3:], " ")
			}
			s.Nondet = append(s.Nondet, NondetSite{Kind: fields[1], Pos: pos, Detail: detail})
		case "unknown":
			if len(fields) < 2 {
				return nil, fmt.Errorf("lint: bad unknown line %q", line)
			}
			pos, err := parsePos(fields[1])
			if err != nil {
				return nil, err
			}
			desc := ""
			if len(fields) > 2 {
				desc = strings.Join(fields[2:], " ")
			}
			s.Unknown = append(s.Unknown, UnknownCall{Pos: pos, Desc: desc})
		case "spawn":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lint: bad spawn line %q", line)
			}
			pos, err := parsePos(fields[1])
			if err != nil {
				return nil, err
			}
			s.Spawns = append(s.Spawns, pos)
		case "trans":
			if len(fields) != 3 {
				return nil, fmt.Errorf("lint: bad trans line %q", line)
			}
			pos, err := parsePos(fields[2])
			if err != nil {
				return nil, err
			}
			s.TransAcquires[LockClass(fields[1])] = &acqTrace{Pos: pos}
		case "entry":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lint: bad entry line %q", line)
			}
			entry, err := splitClasses(fields[1])
			if err != nil {
				return nil, err
			}
			if entry == nil {
				return nil, fmt.Errorf("lint: empty entry line %q", line)
			}
			s.EntryMust = entry
		default:
			return nil, fmt.Errorf("lint: unknown summary line kind %q", fields[0])
		}
	}
	sortSummary(s)
	return s, nil
}
