// Package golden checks a program's standard output against a golden
// file, byte for byte. The examples use it to pin their stdout across
// commits, so a change meant to keep results (a speedup, a refactor)
// is checked by go test rather than by hand.
package golden

import (
	"bytes"
	"os"
	"testing"
)

// Stdout runs fn with os.Stdout redirected to a temporary file and
// fails t unless what fn wrote equals the file at path. Write the
// golden from the same program, e.g.
//
//	go run ./examples/quickstart > examples/quickstart/testdata/stdout.golden
//
// fn must not run in parallel with anything else that writes to
// os.Stdout.
func Stdout(t *testing.T, path string, fn func()) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = saved }()
		fn()
	}()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
