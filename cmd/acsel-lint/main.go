// Command acsel-lint runs the repository's domain-specific static
// analyzers (internal/lint) over the module and prints findings as
// file:line:col: [check] message. It exits 1 when findings remain and
// 2 on load or usage errors, so `make lint` and CI fail the build on
// any unsuppressed diagnostic.
//
// Usage:
//
//	acsel-lint [-C dir] [-checks list] [-list] [-fix] [-sarif file] [-budget file] [-summaries] [packages]
//
// Package patterns follow the go tool: ./... (default), ./internal/rts,
// ./internal/... . Findings are suppressed at the site with
// //lint:ignore <check> <reason>; see internal/lint. The suite spans
// two tiers: unit analyzers check one package at a time, while the
// module analyzers (lockorder, sharedstate, atomicmix, puredet) build
// a whole-module call graph and function summaries, so they always
// analyze every package and report the findings that land in the
// selected ones.
//
// -fix applies each finding's suggested fix (when one exists), gofmts
// and atomically rewrites the touched files, then re-runs the analyzers
// so the exit status reflects what remains; a second -fix run is a
// no-op. -sarif writes a SARIF 2.1.0 log for CI annotation ("-" for
// stdout), including call-path traces as relatedLocations. -budget
// names a findings-ratchet file holding the maximum tolerated finding
// count: at or under budget the exit code is 0, so CI fails only on
// regressions while the recorded debt is paid down.
// -summaries dumps the call graph and per-function summaries instead
// of linting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"acsel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acsel-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	dir := fs.String("C", ".", "module root directory (must contain go.mod)")
	fix := fs.Bool("fix", false, "apply suggested fixes, then re-run and report what remains")
	sarifOut := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	budget := fs.String("budget", "", "findings-ratchet file: exit 0 while findings stay at or under the recorded count")
	summaries := fs.Bool("summaries", false, "dump the call graph and per-function summaries instead of linting")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.AllModule() {
			fmt.Fprintf(stdout, "%-12s %s (module-wide)\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *summaries {
		if err := lint.DumpSummaries(root, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}

	suite, err := lint.SuiteByName(*checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	diags, err := lint.RunSuite(root, fs.Args(), suite)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *fix {
		res, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, f := range res.ChangedFiles {
			if rel, err := filepath.Rel(root, f); err == nil {
				f = rel
			}
			fmt.Fprintf(stderr, "acsel-lint: fixed %s\n", f)
		}
		if res.Skipped > 0 {
			fmt.Fprintf(stderr, "acsel-lint: %d conflicting fix(es) skipped; re-run -fix\n", res.Skipped)
		}
		if len(res.ChangedFiles) > 0 {
			// Fixed files changed on disk: the remaining findings must
			// come from a fresh run.
			diags, err = lint.RunSuite(root, fs.Args(), suite)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
	}

	if *sarifOut != "" {
		w := stdout
		if *sarifOut != "-" {
			f, err := os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			werr := lint.WriteSARIF(f, root, diags, suite)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(stderr, werr)
				return 2
			}
		} else if err := lint.WriteSARIF(w, root, diags, suite); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *sarifOut != "-" {
		for _, d := range diags {
			// Print module-relative paths: stable across machines and CI.
			if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			fmt.Fprintln(stdout, d.String())
		}
	}
	if *budget != "" {
		max, err := readBudget(*budget)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if len(diags) > max {
			fmt.Fprintf(stderr, "acsel-lint: %d finding(s) exceed the budget of %d in %s — fix the regression or justify a //lint:ignore\n",
				len(diags), max, *budget)
			return 1
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "acsel-lint: %d finding(s) within budget %d\n", len(diags), max)
		}
		return 0
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "acsel-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// readBudget parses the ratchet file: one non-negative integer, blank
// lines and #-comments permitted.
func readBudget(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("acsel-lint: reading budget: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("acsel-lint: budget file %s: want a non-negative integer, got %q", path, line)
		}
		return n, nil
	}
	return 0, fmt.Errorf("acsel-lint: budget file %s is empty", path)
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("acsel-lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}
