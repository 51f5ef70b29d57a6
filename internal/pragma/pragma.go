// Package pragma implements the source preprocessor of §III-D: "we
// currently instrument source code by hand with profiling pragmas,
// which a source preprocessor then converts into profiling library
// calls." It scans C-like source for
//
//	#pragma acsel profile("kernel-name")
//
// immediately preceding a statement or block, and rewrites the source
// so the statement is bracketed by acsel_profile_begin/_end calls. The
// preprocessor is purely textual (brace matching, no C parsing), which
// is exactly the fidelity the paper's tooling needed.
package pragma

import (
	"fmt"
	"regexp"
	"strings"
)

// Marker is the pragma the preprocessor recognizes.
const Marker = "#pragma acsel profile"

// BeginCall and EndCall are the emitted library calls.
const (
	BeginCall = "acsel_profile_begin"
	EndCall   = "acsel_profile_end"
)

var pragmaRe = regexp.MustCompile(`^\s*#pragma\s+acsel\s+profile\s*\(\s*"([^"]+)"\s*\)\s*$`)

// Instrumented describes one rewritten site.
type Instrumented struct {
	Kernel string
	// Line is the 1-based line number of the pragma in the input.
	Line int
}

// Error is a preprocessing failure with position information.
type Error struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("pragma: line %d: %s", e.Line, e.Msg) }

// Preprocess rewrites src, converting every profile pragma into
// begin/end library calls around the following block or single
// statement. It returns the rewritten source and the list of
// instrumented kernels in order of appearance.
func Preprocess(src string) (string, []Instrumented, error) {
	lines := strings.Split(src, "\n")
	var out []string
	var sites []Instrumented

	for i := 0; i < len(lines); i++ {
		m := pragmaRe.FindStringSubmatch(lines[i])
		if m == nil {
			if strings.Contains(lines[i], Marker) {
				return "", nil, &Error{Line: i + 1, Msg: "malformed profile pragma"}
			}
			out = append(out, lines[i])
			continue
		}
		name := m[1]
		pragmaLine := i + 1
		indent := leadingWhitespace(lines[i])

		// Find the instrumented statement: the next non-blank line.
		j := i + 1
		for j < len(lines) && strings.TrimSpace(lines[j]) == "" {
			out = append(out, lines[j])
			j++
		}
		if j >= len(lines) {
			return "", nil, &Error{Line: i + 1, Msg: "pragma at end of file"}
		}

		out = append(out, fmt.Sprintf("%s%s(%q);", indent, BeginCall, name))
		if strings.Contains(lines[j], "{") {
			// Block form: copy lines until the braces balance.
			depth := 0
			k := j
			for ; k < len(lines); k++ {
				depth += strings.Count(lines[k], "{") - strings.Count(lines[k], "}")
				out = append(out, lines[k])
				if depth == 0 {
					break
				}
			}
			if depth != 0 {
				return "", nil, &Error{Line: j + 1, Msg: "unbalanced braces in instrumented block"}
			}
			i = k
		} else {
			// Single-statement form: it must end with a semicolon.
			if !strings.HasSuffix(strings.TrimSpace(lines[j]), ";") {
				return "", nil, &Error{Line: j + 1, Msg: "instrumented statement must be a block or end with ';'"}
			}
			out = append(out, lines[j])
			i = j
		}
		out = append(out, fmt.Sprintf("%s%s(%q);", indent, EndCall, name))
		sites = append(sites, Instrumented{Kernel: name, Line: pragmaLine})
	}
	return strings.Join(out, "\n"), sites, nil
}

func leadingWhitespace(s string) string {
	return s[:len(s)-len(strings.TrimLeft(s, " \t"))]
}
