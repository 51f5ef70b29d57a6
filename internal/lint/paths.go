package lint

import (
	"go/ast"
)

// Path queries over the CFG used by goroleak: "can the function exit
// without doing X after this point".

// nodeLocs indexes every CFG node to its (block, index) position.
func nodeLocs(cfg *CFG) map[ast.Node]nodeLoc {
	locs := make(map[ast.Node]nodeLoc)
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			locs[n] = nodeLoc{block: b, index: i}
		}
	}
	return locs
}

// existsPathAvoiding reports whether control can flow from just after
// (from, fromIdx) to the CFG exit without passing any node for which
// stop returns true. It is the primitive behind "some path leaks" /
// "every path cancels" questions.
func existsPathAvoiding(cfg *CFG, from *Block, fromIdx int, stop func(ast.Node) bool) bool {
	// Finish the starting block first.
	for _, n := range from.Nodes[fromIdx:] {
		if stop(n) {
			return false
		}
	}
	if from == cfg.Exit {
		return true
	}
	seen := map[*Block]bool{from: true}
	stack := append([]*Block{}, from.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == cfg.Exit {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		clean := true
		for _, n := range b.Nodes {
			if stop(n) {
				clean = false
				break
			}
		}
		if clean {
			stack = append(stack, b.Succs...)
		}
	}
	return false
}
