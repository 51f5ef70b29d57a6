// Command acsel-bench regenerates every table and figure of the
// paper's evaluation (§V) from the simulated testbed: Table I/II/III
// and Figures 1–9, plus the cluster assignments of each
// cross-validation fold.
//
// Usage:
//
//	acsel-bench                 # run everything
//	acsel-bench -exp table3     # one experiment
//	acsel-bench -iterations 3   # profiling iterations per config
//	acsel-bench -list           # list experiment names
//	acsel-bench -exp chaos      # Table III under every fault scenario
//	acsel-bench -exp chaos -chaos-scenario sensor-stuck -chaos-seed 7
//	acsel-bench -exp table3 -metrics-dump out.json   # keep the telemetry
//	acsel-bench -metrics-addr :9090                  # live /metrics + pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"acsel/internal/eval"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/metrics"
	"acsel/internal/trace"

	// Register the adaptive runtime's metric families: acsel-bench never
	// executes rts itself, but a -metrics-dump snapshot should carry the
	// full inventory so dashboards and CI assertions see every family,
	// silent ones at zero.
	_ "acsel/internal/rts"
)

var experiments = []string{
	"fig1", "table1", "fig2", "table2", "fig3",
	"table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"clusters", "accuracy", "extensions", "suite", "worst",
	"chaos",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(experiments, ", ")+" or all; chaos only runs when named explicitly)")
	iters := flag.Int("iterations", 3, "profiling iterations per configuration")
	k := flag.Int("k", 5, "cluster count")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv-dir", "", "optional directory for CSV exports (profiles and cases)")
	chaosScenario := flag.String("chaos-scenario", "all", "fault scenario for -exp chaos (a scenario name or all)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-plan seed for -exp chaos")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address for the duration of the run")
	metricsDump := flag.String("metrics-dump", "", "write a JSON metrics snapshot to this file at exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Println(e)
		}
		return
	}

	if *metricsAddr != "" {
		addr, stop, err := metrics.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acsel-bench: metrics listener:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "acsel-bench: metrics shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (and /debug/pprof)\n", addr)
	}

	if err := run(os.Stdout, *exp, *iters, *k, *csvDir, *chaosScenario, *chaosSeed); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-bench:", err)
		os.Exit(1)
	}
	if *metricsDump != "" {
		if err := trace.WriteFile(*metricsDump, metrics.Default.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "acsel-bench: metrics dump:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: snapshot written to %s\n", *metricsDump)
	}
}

func run(w io.Writer, exp string, iters, k int, csvDir, chaosScenario string, chaosSeed int64) error {
	if k < 1 {
		return fmt.Errorf("-k must be at least 1, got %d", k)
	}
	if iters < 1 {
		return fmt.Errorf("-iterations must be at least 1, got %d", iters)
	}
	selected := map[string]bool{}
	if exp == "all" {
		for _, e := range experiments {
			selected[e] = true
		}
		// Chaos deliberately injects faults; it never rides along with
		// "all", keeping the default outputs identical to a clean run.
		delete(selected, "chaos")
	} else {
		ok := false
		for _, e := range experiments {
			if e == exp {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", exp)
		}
		selected[exp] = true
	}

	h := eval.NewHarness()
	h.Opts.Iterations = iters
	h.Opts.K = k
	fmt.Fprintf(os.Stderr, "characterizing 65 kernel/input combinations at %d configurations (%d iterations)...\n",
		h.Profiler.Space.Len(), iters)
	ev, err := h.Run()
	if err != nil {
		return err
	}
	space := h.Profiler.Space

	emit := func(name, body string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if selected[name] {
			fmt.Fprintln(w, body)
		}
		return nil
	}

	if selected["fig1"] {
		fmt.Fprintln(w, eval.ReportFig1())
	}
	t1, err := ev.ReportTable1(space)
	if err := emit("table1", t1, err); err != nil {
		return err
	}
	f2, err := ev.ReportFig2(space)
	if err := emit("fig2", f2, err); err != nil {
		return err
	}
	if selected["fig2"] {
		plot, err := ev.PlotFrontier(space, eval.FrontierKernelID)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, plot)
	}
	if selected["table2"] {
		fmt.Fprintln(w, eval.ReportTable2())
	}
	if selected["fig3"] {
		// Show the LULESH fold's tree, as an arbitrary representative.
		f3, err := ev.ReportFig3("LULESH")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, f3)
	}
	if selected["table3"] {
		fmt.Fprintln(w, ev.ReportTable3())
	}
	if selected["fig4"] {
		fmt.Fprintln(w, ev.ReportFig4())
	}
	if selected["fig5"] {
		fmt.Fprintln(w, ev.ReportFig5())
	}
	if selected["fig6"] {
		fmt.Fprintln(w, ev.ReportFig6())
	}
	f7, err := ev.ReportFig7(space)
	if err := emit("fig7", f7, err); err != nil {
		return err
	}
	if selected["fig7"] {
		plot, err := ev.PlotFrontier(space, eval.Fig7KernelID)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, plot)
	}
	if selected["fig8"] {
		fmt.Fprintln(w, ev.ReportFig8())
	}
	if selected["fig9"] {
		fmt.Fprintln(w, ev.ReportFig9())
	}
	if selected["accuracy"] {
		acc, err := ev.ReportAccuracy()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, acc)
	}
	if selected["suite"] {
		fmt.Fprintln(w, kernels.ReportSuite())
	}
	if selected["worst"] {
		worst, err := ev.ReportWorstPredicted(10)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, worst)
	}
	if selected["chaos"] {
		scenarios := fault.Scenarios()
		if chaosScenario != "all" {
			sc, ok := fault.ScenarioByName(chaosScenario)
			if !ok {
				return fmt.Errorf("unknown chaos scenario %q", chaosScenario)
			}
			scenarios = []fault.Scenario{sc}
		}
		fmt.Fprintf(os.Stderr, "re-running the method comparison under %d fault scenario(s), seed %d...\n",
			len(scenarios), chaosSeed)
		rep, err := ev.RunChaos(scenarios, chaosSeed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.Report())
	}
	if selected["extensions"] {
		fmt.Fprintln(os.Stderr, "running extension study (4 full evaluations)...")
		results, err := eval.RunExtensionStudy(iters)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, eval.ReportExtensionStudy(results))
	}
	if csvDir != "" {
		if err := exportCSV(csvDir, ev); err != nil {
			return err
		}
	}
	if selected["clusters"] {
		var folds []string
		for f := range ev.FoldModels {
			folds = append(folds, f)
		}
		sort.Strings(folds)
		for _, f := range folds {
			fmt.Fprintf(w, "cluster assignments (fold holding out %s):\n%s\n", f, eval.ReportClusterAssignments(ev.FoldModels[f]))
		}
	}
	return nil
}

// exportCSV writes the characterization and case data for external
// analysis.
func exportCSV(dir string, ev *eval.Evaluation) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := trace.WriteFile(filepath.Join(dir, "profiles.csv"), func(w io.Writer) error {
		return writeProfilesCSV(w, ev.Profiles)
	})
	if err != nil {
		return err
	}
	err = trace.WriteFile(filepath.Join(dir, "cases.csv"), func(w io.Writer) error {
		return writeCasesCSV(w, ev.Cases)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "CSV exports written to %s\n", dir)
	return nil
}
