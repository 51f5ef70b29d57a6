// Command acsel-train runs the offline stage (§III-B): it characterizes
// the training suite on the simulated Trinity APU, clusters kernels by
// Pareto-frontier similarity, fits per-cluster power and performance
// regressions, trains the cluster classification tree, and writes the
// resulting model to a JSON file usable by acsel-predict.
//
// Usage:
//
//	acsel-train -out model.json
//	acsel-train -out model.json -holdout LULESH   # leave a benchmark out
//	acsel-train -out model.json -k 4 -iterations 5 -log-targets
package main

import (
	"flag"
	"fmt"
	"os"

	"acsel/internal/core"
	"acsel/internal/eval"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/trace"
)

func main() {
	out := flag.String("out", "model.json", "output model file")
	holdout := flag.String("holdout", "", "benchmark to exclude from training (cross-validation)")
	k := flag.Int("k", 5, "cluster count")
	iters := flag.Int("iterations", 3, "profiling iterations per configuration")
	logTargets := flag.Bool("log-targets", false, "variance-stabilizing log transform on power targets")
	profileOut := flag.String("profiles", "", "optional file to dump the raw profiling history (JSON)")
	verbose := flag.Bool("v", false, "print cluster assignments and the classifier tree")
	flag.Parse()

	if err := run(*out, *holdout, *k, *iters, *logTargets, *profileOut, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-train:", err)
		os.Exit(1)
	}
}

func run(out, holdout string, k, iters int, logTargets bool, profileOut string, verbose bool) error {
	if k < 1 {
		return fmt.Errorf("-k must be at least 1, got %d", k)
	}
	if iters < 1 {
		return fmt.Errorf("-iterations must be at least 1, got %d", iters)
	}
	var ks []kernels.Kernel
	var excluded int
	for _, c := range kernels.Combos() {
		if c.Benchmark == holdout {
			excluded += len(c.Kernels)
			continue
		}
		ks = append(ks, c.Kernels...)
	}
	if len(ks) == 0 {
		return fmt.Errorf("no training kernels left after holding out %q", holdout)
	}
	if holdout != "" && excluded == 0 {
		return fmt.Errorf("unknown holdout benchmark %q", holdout)
	}

	p := profiler.New()
	// Only -profiles reads the samples back, so only it pays for
	// keeping them.
	p.KeepHistory = profileOut != ""
	opts := core.DefaultTrainOptions()
	opts.K = k
	opts.Iterations = iters
	opts.LogTargets = logTargets

	fmt.Fprintf(os.Stderr, "characterizing %d kernel/input combinations at %d configurations...\n", len(ks), p.Space.Len())
	profiles, err := core.Characterize(p, ks, opts)
	if err != nil {
		return err
	}
	model, err := core.Train(p.Space, profiles, opts)
	if err != nil {
		return err
	}

	if err := trace.WriteFile(out, model.Save); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "model written to %s (k=%d, cluster sizes %v)\n", out, model.K, model.ClusterSizes())

	if profileOut != "" {
		if err := trace.WriteFile(profileOut, p.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "profiling history written to %s (%d samples)\n", profileOut, len(p.History()))
	}

	if verbose {
		fmt.Println(eval.ReportClusterAssignments(model))
		fmt.Println("classification tree:")
		fmt.Println(model.RenderTree())
		diag, err := model.ReportDiagnostics()
		if err != nil {
			return err
		}
		fmt.Println(diag)
	}
	return nil
}
