package lint

import (
	"go/importer"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadProgram type-checks a fixture module and assembles the
// interprocedural view, exactly as runModule does.
func loadProgram(t *testing.T, root string) (*token.FileSet, *program) {
	t.Helper()
	modPath, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := selectDirs(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		modRoot: root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*types.Package),
	}
	var mus []*ModuleUnit
	for _, dir := range dirs {
		units, err := ld.loadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			mus = append(mus, &ModuleUnit{Files: u.files, Pkg: u.pkg, Info: u.info})
		}
	}
	return fset, buildProgram(fset, mus)
}

const edgeKindsSrc = `package app

type Runner interface{ Run() }

type Job struct{}

func (Job) Run() {}

func Leaf() {}

func Entry(r Runner) {
	Leaf()      // static
	Job{}.Run() // method on a concrete receiver
	f := Leaf   // function-value reference
	f()
	r.Run()  // interface: CHA resolves to every module implementation
	go Leaf() // goroutine spawn
}
`

// TestCallGraphEdgeKinds is the golden fixture for edge construction:
// one source construct per CallKind, asserted against the canonical
// DumpEdges rendering.
func TestCallGraphEdgeKinds(t *testing.T) {
	root := fixtureModule(t, map[string]string{"app/app.go": edgeKindsSrc})
	_, prog := loadProgram(t, root)
	dump := prog.graph.DumpEdges()

	for _, want := range []string{
		"sandbox/app.Entry -> sandbox/app.Leaf [static]",
		"sandbox/app.Entry -> sandbox/app.(Job).Run [method]",
		"sandbox/app.Entry -> sandbox/app.Leaf [ref]",
		"sandbox/app.Entry -> sandbox/app.(Job).Run [iface]",
		"sandbox/app.Entry -> sandbox/app.Leaf [go]",
	} {
		if !strings.Contains(dump, want+"\n") {
			t.Errorf("edge dump is missing %q:\n%s", want, dump)
		}
	}
}

const mutualRecursionSrc = `package app

import "sync"

var mu sync.Mutex
var other sync.Mutex

func Ping(n int) {
	if n > 0 {
		Pong(n - 1)
	}
}

func Pong(n int) {
	mu.Lock()
	mu.Unlock()
	if n > 0 {
		Ping(n - 1)
	}
}

func Solo() { other.Lock(); other.Unlock() }
`

// TestSCCFixpointMutualRecursion proves the bottom-up transitive
// acquisition fixpoint converges over a recursive SCC: Ping acquires
// nothing locally but must inherit mu through the Ping<->Pong cycle,
// while an unrelated function stays clean.
func TestSCCFixpointMutualRecursion(t *testing.T) {
	root := fixtureModule(t, map[string]string{"app/app.go": mutualRecursionSrc})
	_, prog := loadProgram(t, root)

	for _, fn := range []FuncID{"sandbox/app.Ping", "sandbox/app.Pong"} {
		s := prog.summaries.Get(fn)
		if _, ok := s.TransAcquires[LockClass("sandbox/app.mu")]; !ok {
			t.Errorf("%s: TransAcquires = %v, want sandbox/app.mu via the recursion fixpoint", fn, sortedTransClasses(s.TransAcquires))
		}
		if _, ok := s.TransAcquires[LockClass("sandbox/app.other")]; ok {
			t.Errorf("%s: TransAcquires leaked sandbox/app.other from an unconnected function", fn)
		}
	}
	if n := prog.graph.Lookup("sandbox/app.Ping"); n == nil {
		t.Fatal("Ping missing from graph")
	}
}
