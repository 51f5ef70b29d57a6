package lint

import (
	"go/ast"
)

// This file is the control-flow layer under the dataflow analyzers
// (maporder, walltime, goroleak). A CFG is built per
// function body — FuncDecl and each FuncLit get their own graph — and
// deliberately stays intraprocedural: the analyzers that consume it
// treat calls as opaque and model only what they can prove locally.
//
// The encoding is conventional: basic blocks hold statements (and the
// conditions that guard their successors) in execution order, edges
// follow the possible transfers of control. A synthetic Exit block
// collects every return and the natural fall-off of the body, so "all
// paths to function exit" questions become plain graph reachability.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block in creation order; Blocks[0] is Entry.
	Blocks []*Block
	Entry  *Block
	// Exit is a synthetic empty block reached by every return statement
	// and by falling off the end of the body.
	Exit *Block
}

// Block is one basic block: a maximal straight-line sequence of
// statements with edges only at the end.
type Block struct {
	Index int
	// Nodes holds the block's statements and guarding expressions in
	// execution order. Conditions (if/for/switch tags) appear as bare
	// ast.Expr entries before the branch happens.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// addEdge wires b -> s.
func addEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// loopFrame tracks the jump targets of one enclosing loop or switch for
// break/continue resolution.
type loopFrame struct {
	label     string // enclosing label, "" when unlabeled
	breakTo   *Block
	contTo    *Block // nil inside switch/select frames (continue skips them)
	isLoop    bool
	rangeStmt ast.Node // the loop's Range/For statement, for diagnostics
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	// pendingLabel names the statement about to be built, so that a
	// labeled for/range/switch resolves "break label"/"continue label".
	pendingLabel string
}

// BuildCFG constructs the control-flow graph of body. It is resilient
// to any statement mix the parser accepts; goto is modeled
// conservatively as an edge to Exit (no analyzer in this package runs
// on code using goto, and ending the path keeps every dataflow client
// sound-by-termination rather than wrong).
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	entry := b.newBlock()
	exit := &Block{Index: -1}
	b.cfg.Entry = entry
	b.cfg.Exit = exit
	b.cur = entry
	b.stmtList(body.List)
	if b.cur != nil {
		addEdge(b.cur, exit)
	}
	exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock makes blk current; a nil current block (after return/break)
// means subsequent statements are unreachable and land in a fresh
// predecessor-less block, keeping positions queryable without edges.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code island
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// jump terminates the current path with an edge to target.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		addEdge(b.cur, target)
	}
	b.cur = nil
}

// takeLabel consumes the pending label for the statement being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findFrame resolves a break/continue target. label == "" selects the
// innermost applicable frame; continue skips switch/select frames.
func (b *cfgBuilder) findFrame(label string, needLoop bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// Start a fresh block so the label is a join point, then let the
		// labeled statement pick the name up for break/continue.
		next := b.newBlock()
		b.jump(next)
		b.cur = next
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		join := b.newBlock()

		thenBlk := b.newBlock()
		addEdge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.jump(join)

		if s.Else != nil {
			elseBlk := b.newBlock()
			addEdge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.jump(join)
		} else {
			addEdge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		b.jump(header)
		b.cur = header
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		addEdge(header, body)
		if s.Cond != nil {
			addEdge(header, exit)
		}
		post := header
		if s.Post != nil {
			post = b.newBlock()
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, contTo: post, isLoop: true, rangeStmt: s})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if s.Post != nil {
			b.jump(post)
			b.cur = post
			b.add(s.Post)
			b.jump(header)
		} else {
			b.jump(header)
		}
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlock()
		b.jump(header)
		b.cur = header
		// The RangeStmt node itself carries the key/value definitions
		// and the ranged expression; dataflow reads them from here.
		b.add(s)
		body := b.newBlock()
		exit := b.newBlock()
		addEdge(header, body)
		addEdge(header, exit)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, contTo: header, isLoop: true, rangeStmt: s})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(header)
		b.cur = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		label := b.takeLabel()
		header := b.cur
		if header == nil {
			header = b.newBlock()
			b.cur = header
		}
		join := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			clause := b.newBlock()
			addEdge(header, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			addEdge(header, join)
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.add(s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok.String() {
		case "break":
			if f := b.findFrame(label, false); f != nil {
				b.jump(f.breakTo)
			} else {
				b.cur = nil
			}
		case "continue":
			if f := b.findFrame(label, true); f != nil {
				b.jump(f.contTo)
			} else {
				b.cur = nil
			}
		case "goto":
			// Conservative: end the path (see BuildCFG doc).
			b.jump(b.cfg.Exit)
		case "fallthrough":
			// switchStmt wires the fallthrough edge; nothing here.
		}

	default:
		// Straight-line statements: assignments, declarations, calls,
		// go/defer/send/incdec/empty. Nested function literals are NOT
		// descended into — each gets its own CFG.
		b.add(s)
	}
}

// switchStmt lowers expression and type switches: the tag evaluates in
// the header, every clause is a successor, a missing default adds a
// header->join edge, and fallthrough chains clause bodies.
func (b *cfgBuilder) switchStmt(s ast.Stmt) {
	label := b.takeLabel()
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, clauses = s.Init, s.Body.List
		if s.Tag != nil {
			tag = s.Tag
		}
	case *ast.TypeSwitchStmt:
		init, clauses = s.Init, s.Body.List
		tag = s.Assign
	}
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	header := b.cur
	if header == nil {
		header = b.newBlock()
		b.cur = header
	}
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: join})

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock()
		addEdge(header, blocks[i])
		if cc, ok := clauses[i].(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(blocks) {
			b.jump(blocks[i+1])
		} else {
			b.jump(join)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		addEdge(header, join)
	}
	b.cur = join
}

// FuncBodies yields every function body in the file — declarations and
// literals — paired with the node that owns it. Analyzers iterate this
// to run one intraprocedural pass per body.
func FuncBodies(f *ast.File, fn func(owner ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n, n.Body)
			}
		case *ast.FuncLit:
			fn(n, n.Body)
		}
		return true
	})
}
