package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerMetricName enforces the observability layer's naming contract
// at the metrics-constructor call sites: names are snake_case, counters
// end in _total (Prometheus monotone-counter convention), and gauges
// and histograms carry an explicit unit suffix (_seconds, _watts, ...).
// A dashboard query against a misnamed family fails silently — the
// scrape succeeds, the panel is just empty — so the mistake belongs at
// compile review time, not at 2 a.m.
var AnalyzerMetricName = &Analyzer{
	Name: "metricname",
	Doc:  "enforce snake_case metric names with _total/unit suffixes at metrics constructors",
	Run:  runMetricName,
}

// metricCtors maps the constructor names of acsel/internal/metrics to
// the kind they build and the argument index where label names start
// (-1 when the constructor takes no labels).
var metricCtors = map[string]struct {
	kind      string
	labelsIdx int
}{
	"NewCounter":      {"counter", -1},
	"NewCounterFunc":  {"counter", -1},
	"NewCounterVec":   {"counter", 2},
	"NewGauge":        {"gauge", -1},
	"NewGaugeVec":     {"gauge", 2},
	"NewHistogram":    {"histogram", -1},
	"NewHistogramVec": {"histogram", 3},
}

// metricUnitSuffixes are the accepted trailing units for gauges and
// histograms, mirroring the families the repo actually measures.
var metricUnitSuffixes = []string{
	"_seconds", "_watts", "_joules", "_bytes",
	"_ratio", "_celsius", "_hertz", "_volts",
}

func runMetricName(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "metrics" {
				return true
			}
			ctor, ok := metricCtors[fn.Name()]
			if !ok || len(call.Args) == 0 {
				return true
			}
			if name, ok := constString(pass, call.Args[0]); ok {
				checkMetricName(pass, call.Args[0].Pos(), ctor.kind, name)
			}
			if ctor.labelsIdx >= 0 {
				for _, arg := range call.Args[min(ctor.labelsIdx, len(call.Args)):] {
					if label, ok := constString(pass, arg); ok && !snakeCase(label) {
						pass.Reportf(arg.Pos(), "label %q is not snake_case", label)
					}
				}
			}
			return true
		})
	}
}

// checkMetricName applies the kind-specific rules to one constant name.
func checkMetricName(pass *Pass, pos token.Pos, kind, name string) {
	if !snakeCase(name) {
		pass.Reportf(pos, "metric name %q is not snake_case (lowercase [a-z0-9_], starting with a letter)", name)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total", name)
		}
	default:
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "%s %q must not end in _total (that suffix is reserved for counters)", kind, name)
			return
		}
		if !hasUnitSuffix(name) {
			pass.Reportf(pos, "%s %q needs a unit suffix (one of %s)", kind, name, strings.Join(metricUnitSuffixes, ", "))
		}
	}
}

// calleeFunc resolves the called function for both selector calls
// (metrics.NewCounter, reg.NewCounterVec) and bare in-package calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// constString extracts a compile-time string value; dynamic names
// cannot be checked statically and are skipped.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// snakeCase reports whether s is lowercase snake_case starting with a
// letter, with no empty underscore runs (mirrors metrics.ValidName).
func snakeCase(s string) bool {
	if s == "" {
		return false
	}
	for i, run := range strings.Split(s, "_") {
		if run == "" {
			return false
		}
		for j, r := range run {
			switch {
			case r >= 'a' && r <= 'z':
			case r >= '0' && r <= '9':
				if i == 0 && j == 0 {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

func hasUnitSuffix(name string) bool {
	for _, suf := range metricUnitSuffixes {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}
