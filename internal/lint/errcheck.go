package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AnalyzerErrCheck flags statements that call a function returning an
// error and drop the result on the floor. A swallowed error in the
// profiler or runtime layers turns a failed RAPL read or an apply()
// rejection into silently-wrong energy numbers, which is worse than a
// crash. Write `_ = f()` (or better, handle it) to make the drop
// explicit; tests are exempt.
//
// It also catches the deferred variant: `defer f.Close()` on a file
// opened for writing (os.Create, os.CreateTemp, writable os.OpenFile —
// decided by reaching definitions). A deferred Close is the moment buffered data
// hits the disk; dropping its error means a short write to a model
// file or CSV export passes silently. Read-only files keep the idiom.
var AnalyzerErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "flag discarded error results, including defer Close() on writable files",
	Run:  runErrCheck,
}

// errCheckSafe lists callees whose returned error is either always nil
// by contract (strings.Builder, bytes.Buffer writes) or conventionally
// ignored (fmt terminal printing). Entries are "pkgpath.Func" for
// package functions and "pkgpath.Type.Method" for methods.
var errCheckSafe = map[string]bool{
	"fmt.Print":                   true,
	"fmt.Printf":                  true,
	"fmt.Println":                 true,
	"fmt.Fprint":                  true,
	"fmt.Fprintf":                 true,
	"fmt.Fprintln":                true,
	"strings.Builder.Write":       true,
	"strings.Builder.WriteString": true,
	"strings.Builder.WriteByte":   true,
	"strings.Builder.WriteRune":   true,
	"bytes.Buffer.Write":          true,
	"bytes.Buffer.WriteString":    true,
	"bytes.Buffer.WriteByte":      true,
	"bytes.Buffer.WriteRune":      true,
}

func runErrCheck(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass, call) || isSafeCallee(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error returned by %s is discarded; handle it or assign to _ explicitly", calleeString(call))
			return true
		})
		runDeferClose(pass, f)
	}
}

// writableOpeners are the os functions that yield a file whose Close
// error must be checked: a deferred Close is where buffered writes can
// fail.
var writableOpeners = map[string]bool{
	"Create": true, "CreateTemp": true, "OpenFile": true,
}

// runDeferClose reports `defer f.Close()` when every definition of f
// reaching the defer is a writable open. The question "was this handle
// opened for writing" is answered with reaching definitions, so
// read-only handles (os.Open) keep the deferred idiom and a handle
// that is conditionally reopened writable is still caught.
func runDeferClose(pass *Pass, f *ast.File) {
	FuncBodies(f, func(owner ast.Node, body *ast.BlockStmt) {
		cfg := BuildCFG(body)
		rd := NewReachingDefs(owner, cfg, pass.TypesInfo, nil)
		for _, b := range cfg.Blocks {
			for _, n := range b.Nodes {
				def, ok := n.(*ast.DeferStmt)
				if !ok {
					continue
				}
				call := def.Call
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Close" || !returnsError(pass, call) {
					continue
				}
				root := rootIdent(sel.X)
				if root == nil {
					continue
				}
				obj := identObject(pass.TypesInfo, root)
				if obj == nil {
					continue
				}
				defs := rd.At(def, obj)
				if len(defs) == 0 || !allWritableOpens(pass, defs) {
					continue
				}
				pass.Reportf(def.Pos(), "error from deferred %s.Close on a writable file is discarded; close on the write path and check the error (or capture it in a named return)", root.Name)
			}
		}
	})
}

// allWritableOpens reports whether every reaching definition binds the
// object from a writable os open call.
func allWritableOpens(pass *Pass, defs []*DefSite) bool {
	for _, d := range defs {
		if d.RHS == nil {
			return false
		}
		call, ok := ast.Unparen(d.RHS).(*ast.CallExpr)
		if !ok {
			return false
		}
		pkg, recv, name, resolved := callee(pass, call)
		if !resolved || recv != "" || pkg != "os" || !writableOpeners[name] {
			return false
		}
		if name == "OpenFile" && !openFileFlagsWritable(pass, call) {
			return false
		}
	}
	return true
}

// openFileFlagsWritable decides os.OpenFile's flag argument: a
// constant-foldable flag without O_WRONLY/O_RDWR is read-only (not
// reported); anything non-constant is conservatively writable.
func openFileFlagsWritable(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return true
	}
	tv, ok := pass.TypesInfo.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true
	}
	v, ok := constantInt64(tv.Value.ExactString())
	if !ok {
		return true
	}
	// os.O_WRONLY = 1, os.O_RDWR = 2 on every supported platform.
	return v&3 != 0
}

func constantInt64(s string) (int64, bool) {
	var v int64
	_, err := fmt.Sscan(s, &v)
	return v, err == nil
}

// returnsError reports whether the call's sole or final result is an
// error value.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		return isErrorType(t.At(t.Len() - 1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isSafeCallee resolves the called object and checks the allowlist.
func isSafeCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	key := obj.Pkg().Path() + "." + obj.Name()
	if recv := sig.Recv(); recv != nil {
		key = obj.Pkg().Path() + "." + receiverTypeName(recv.Type()) + "." + obj.Name()
	}
	return errCheckSafe[key]
}

// receiverTypeName names a method receiver's base type: *strings.Builder
// and strings.Builder both yield "Builder".
func receiverTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeString renders the callee for the diagnostic message.
func calleeString(call *ast.CallExpr) string {
	return exprString(call.Fun)
}
