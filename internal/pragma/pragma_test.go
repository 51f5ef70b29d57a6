package pragma

import (
	"strings"
	"testing"
)

func TestPreprocessBlockForm(t *testing.T) {
	src := `void step() {
  #pragma acsel profile("CalcQForElems")
  for (int i = 0; i < n; i++) {
    q[i] = compute(i);
  }
  done();
}`
	out, sites, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0].Kernel != "CalcQForElems" || sites[0].Line != 2 {
		t.Fatalf("sites = %+v", sites)
	}
	wantBegin := `acsel_profile_begin("CalcQForElems");`
	wantEnd := `acsel_profile_end("CalcQForElems");`
	bi := strings.Index(out, wantBegin)
	li := strings.Index(out, "for (")
	ei := strings.Index(out, wantEnd)
	di := strings.Index(out, "done();")
	if bi < 0 || ei < 0 || !(bi < li && li < ei && ei < di) {
		t.Fatalf("instrumentation misplaced:\n%s", out)
	}
	if strings.Contains(out, "#pragma acsel") {
		t.Error("pragma left in output")
	}
}

func TestPreprocessSingleStatement(t *testing.T) {
	src := `  #pragma acsel profile("launch")
  run_kernel(a, b);`
	out, sites, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0].Kernel != "launch" {
		t.Fatalf("sites = %+v", sites)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(lines[0], BeginCall) || !strings.Contains(lines[2], EndCall) {
		t.Fatalf("output:\n%s", out)
	}
	// Indentation preserved.
	if !strings.HasPrefix(lines[0], "  ") {
		t.Error("indentation lost")
	}
}

func TestPreprocessMultipleSites(t *testing.T) {
	src := `#pragma acsel profile("a")
x();
#pragma acsel profile("b")
{
  y();
}`
	_, sites, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 || sites[0].Kernel != "a" || sites[1].Kernel != "b" {
		t.Fatalf("sites = %+v", sites)
	}
}

func TestPreprocessNestedBraces(t *testing.T) {
	src := `#pragma acsel profile("nested")
{
  if (x) {
    while (y) { z(); }
  }
}
after();`
	out, _, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	ei := strings.Index(out, EndCall)
	ai := strings.Index(out, "after();")
	if ei < 0 || ai < ei {
		t.Fatalf("end call misplaced:\n%s", out)
	}
}

func TestPreprocessBlankLinesBetweenPragmaAndBlock(t *testing.T) {
	src := `#pragma acsel profile("k")

{
  body();
}`
	_, sites, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 {
		t.Fatalf("sites = %+v", sites)
	}
}

func TestPreprocessErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"malformed", `#pragma acsel profile(unquoted)`},
		{"at EOF", `#pragma acsel profile("k")`},
		{"unbalanced", "#pragma acsel profile(\"k\")\n{\n  x();"},
		{"no semicolon", "#pragma acsel profile(\"k\")\nbare_word"},
	}
	for _, c := range cases {
		if _, _, err := Preprocess(c.src); err == nil {
			t.Errorf("%s: error expected", c.name)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("%s: error type %T", c.name, err)
		}
	}
}

func TestPreprocessPassThrough(t *testing.T) {
	src := "int main() {\n  return 0;\n}"
	out, sites, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	if out != src || len(sites) != 0 {
		t.Error("unannotated source should pass through unchanged")
	}
}

func TestErrorMessage(t *testing.T) {
	e := &Error{Line: 3, Msg: "boom"}
	if !strings.Contains(e.Error(), "line 3") || !strings.Contains(e.Error(), "boom") {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestPreprocessIdempotentOnOutput(t *testing.T) {
	// The rewritten source contains no pragmas, so preprocessing it
	// again is the identity.
	src := `#pragma acsel profile("k")
{
  work();
}`
	out1, _, err := Preprocess(src)
	if err != nil {
		t.Fatal(err)
	}
	out2, sites, err := Preprocess(out1)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out1 || len(sites) != 0 {
		t.Error("preprocessing not idempotent")
	}
}

func BenchmarkPreprocess(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString("#pragma acsel profile(\"k\")\n{\n  work();\n}\nplain();\n")
	}
	src := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Preprocess(src); err != nil {
			b.Fatal(err)
		}
	}
}
