package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirEntries lists the names in dir.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileReplacesAtomically: a clean write replaces the target
// whole; a write that fails part-way leaves the old target untouched
// and no temp file beside it.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"half":`); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old\n" {
		t.Fatalf("target after a failed write = %q, %v; want it unchanged", b, err)
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("directory after a failed write holds %v, want only the target", names)
	}

	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "new\n" {
		t.Fatalf("target after a clean write = %q, %v", b, err)
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("directory after a clean write holds %v, want only the target", names)
	}
	if err := WriteFile(filepath.Join(path, "not-a-dir", "x.json"), func(io.Writer) error { return nil }); err == nil {
		t.Error("impossible path accepted")
	}
}
