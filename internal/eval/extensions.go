package eval

import (
	"fmt"
	"strings"

	"acsel/internal/sched"
)

// ExtensionVariant is one configuration of the §VI future-work
// extensions applied to the model-based methods.
type ExtensionVariant struct {
	Name string
	// LogTargets enables the variance-stabilizing transform on power
	// regression targets.
	LogTargets bool
	// VarAwareZ is the variance-aware selection margin (0 disables).
	VarAwareZ float64
}

// ExtensionVariants is the study grid: the base system and the three
// §VI combinations.
func ExtensionVariants() []ExtensionVariant {
	return []ExtensionVariant{
		{Name: "base"},
		{Name: "+log", LogTargets: true},
		{Name: "+va(z=1)", VarAwareZ: 1},
		{Name: "+log+va", LogTargets: true, VarAwareZ: 1},
	}
}

// ExtensionResult is one variant's headline numbers for the two
// model-based methods.
type ExtensionResult struct {
	Variant ExtensionVariant
	// Per method: cap compliance and under-limit oracle-relative perf.
	ModelPctUnder    float64
	ModelUnderPerf   float64
	ModelFLPctUnder  float64
	ModelFLUnderPerf float64
}

// RunExtensionStudy evaluates every extension variant with the full
// cross-validated harness at the given profiling iteration count.
func RunExtensionStudy(iterations int) ([]ExtensionResult, error) {
	var out []ExtensionResult
	for _, v := range ExtensionVariants() {
		h := NewHarness()
		h.Opts.Iterations = iterations
		h.Opts.LogTargets = v.LogTargets
		h.MethodsUnderTest = []sched.Method{sched.MethodModel, sched.MethodModelFL}
		h.varAwareZ = v.VarAwareZ
		ev, err := h.Run()
		if err != nil {
			return nil, fmt.Errorf("eval: variant %q: %w", v.Name, err)
		}
		out = append(out, ExtensionResult{
			Variant:          v,
			ModelPctUnder:    ev.Overall[sched.MethodModel].PctUnder,
			ModelUnderPerf:   ev.Overall[sched.MethodModel].UnderPerfRatio,
			ModelFLPctUnder:  ev.Overall[sched.MethodModelFL].PctUnder,
			ModelFLUnderPerf: ev.Overall[sched.MethodModelFL].UnderPerfRatio,
		})
	}
	return out, nil
}

// ReportExtensionStudy renders the study as a table.
func ReportExtensionStudy(results []ExtensionResult) string {
	var b strings.Builder
	b.WriteString("Extension study (§VI future work): model variants, leave-one-benchmark-out\n")
	fmt.Fprintf(&b, "%-10s %-16s %-16s %-18s %-18s\n",
		"variant", "Model %under", "Model %perf", "Model+FL %under", "Model+FL %perf")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %-16.0f %-16.0f %-18.0f %-18.0f\n",
			r.Variant.Name,
			r.ModelPctUnder*100, r.ModelUnderPerf*100,
			r.ModelFLPctUnder*100, r.ModelFLUnderPerf*100)
	}
	return b.String()
}
