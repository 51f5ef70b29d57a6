// Package trace is how every program writes an output file — CSVs,
// models, metrics dumps, summaries, SARIF logs — so that a failed write
// never leaves a partial file. It imports nothing from the repository,
// so linking it costs a program nothing else.
package trace

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile is how the command-line tools write an output file: write's
// output goes to a temp file beside path, which is renamed over path
// only after write and Close both succeed. Close is checked on the
// write path — for a fresh file it is where a short write or a full
// disk surfaces. On any failure the temp file is removed and path is
// left as it was, so a truncated CSV, model export or metrics dump is
// never mistaken for a complete one, and a reader polling for path
// never sees a partial file.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) //lint:ignore errcheck best-effort cleanup of partial output
	}
	return err
}
