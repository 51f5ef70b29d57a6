// Command acsel-app executes a proxy application through the adaptive
// runtime: offline training on the other benchmarks, then timestep
// after timestep of the app's kernels with per-kernel sampling,
// classification, pinning, and (optionally) an FL feedback loop and a
// dynamic power-cap schedule.
//
// Usage:
//
//	acsel-app -bench LULESH -input Large -cap 24 -steps 10
//	acsel-app -bench CoMD -input Small -cap 20 -fl -cap-schedule 30,20,15
//	acsel-app -bench LULESH -input Large -cap 24 -fault-plan sensor-stuck:7
//	acsel-app -bench LULESH -cap 24 -metrics-addr :9090 -metrics-dump run.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/metrics"
	"acsel/internal/profiler"
	"acsel/internal/rts"
	"acsel/internal/trace"
)

func main() {
	bench := flag.String("bench", "LULESH", "application benchmark to run")
	input := flag.String("input", "Large", "input size")
	capW := flag.Float64("cap", 24, "initial node power cap (watts)")
	steps := flag.Int("steps", 8, "application timesteps")
	fl := flag.Bool("fl", false, "enable the feedback frequency limiter (Model+FL)")
	z := flag.Float64("z", 0, "variance-aware selection margin (0 disables)")
	capSchedule := flag.String("cap-schedule", "", "comma-separated caps applied at successive timesteps")
	faultPlan := flag.String("fault-plan", "", "fault scenario to inject, as scenario[:seed] (empty = clean run)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address for the duration of the run")
	metricsDump := flag.String("metrics-dump", "", "write a JSON metrics snapshot to this file at exit")
	flag.Parse()

	if *metricsAddr != "" {
		addr, stop, err := metrics.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acsel-app: metrics listener:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "acsel-app: metrics shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (and /debug/pprof)\n", addr)
	}

	if err := run(*bench, *input, *capW, *steps, *fl, *z, *capSchedule, *faultPlan); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-app:", err)
		os.Exit(1)
	}
	if *metricsDump != "" {
		if err := trace.WriteFile(*metricsDump, metrics.Default.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "acsel-app: metrics dump:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: snapshot written to %s\n", *metricsDump)
	}
}

func run(bench, input string, capW float64, steps int, fl bool, z float64, capSchedule, faultPlan string) error {
	var inj *fault.Injector
	if faultPlan != "" {
		var err error
		if inj, err = fault.ParsePlan(faultPlan); err != nil {
			return err
		}
	}

	var caps []float64
	if capSchedule != "" {
		for _, tok := range strings.Split(capSchedule, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad cap schedule entry %q: %w", tok, err)
			}
			caps = append(caps, v)
		}
	}

	var training, app []kernels.Kernel
	for _, c := range kernels.Combos() {
		if c.Benchmark == bench {
			if c.Input == input {
				app = c.Kernels
			}
			continue
		}
		training = append(training, c.Kernels...)
	}
	if len(app) == 0 {
		return fmt.Errorf("unknown benchmark/input %s/%s", bench, input)
	}

	prof := profiler.New()
	opts := core.DefaultTrainOptions()
	fmt.Fprintf(os.Stderr, "training on %d kernels (leave-%s-out)...\n", len(training), bench)
	profiles, err := core.Characterize(prof, training, opts)
	if err != nil {
		return err
	}
	model, err := core.Train(prof.Space, profiles, opts)
	if err != nil {
		return err
	}

	runtime, err := rts.New(model, rts.Options{CapW: capW, FL: fl, VarAwareZ: z, Faults: inj})
	if err != nil {
		return err
	}

	fmt.Printf("%s %s: %d kernels/timestep, %d timesteps, cap %.0f W (FL=%v)\n",
		bench, input, len(app), steps, capW, fl)
	if inj != nil {
		fmt.Printf("fault plan: %s\n", faultPlan)
	}
	for step := 0; step < steps; step++ {
		if step < len(caps) {
			if err := runtime.SetCap(caps[step]); err != nil {
				return err
			}
		}
		var stepTime, stepEnergy float64
		viol := 0
		for _, k := range app {
			s, err := runtime.RunKernel(k)
			if err != nil {
				return err
			}
			stepTime += s.TimeSec * k.TimeShare
			stepEnergy += s.EnergyJ * k.TimeShare
			if !s.UnderCap {
				viol++
			}
		}
		fmt.Printf("timestep %2d: cap %5.1f W, weighted time %.4f s, weighted energy %7.2f J, violations %d/%d\n",
			step, runtime.Cap(), stepTime, stepEnergy, viol, len(app))
	}

	sum := runtime.Summarize()
	fmt.Printf("\ntotals: %d kernel executions (%d sampling, %d pinned), %.3f s, %.1f J, %d violations\n",
		sum.Steps, sum.SampledSteps, sum.PinnedSteps, sum.TimeSec, sum.EnergyJ, sum.Violations)
	if sum.Health != nil {
		fmt.Printf("faults: %d quarantined, %d sensor-lost, %d apply retries (%d terminal failures), %d demotions, %d recoveries\n",
			sum.Quarantined, sum.SensorLost, sum.ApplyRetries, sum.ApplyFailures, sum.Demotions, sum.Recoveries)
		fmt.Println("\nper-kernel health:")
		for _, k := range app {
			h, ok := runtime.HealthFor(k.ID())
			if !ok {
				continue
			}
			fmt.Printf("  %-36s rung %-9s demotions %d recoveries %d quarantined %d dropouts %d divergence %.2f\n",
				k.Name, h.Rung, h.Demotions, h.Recoveries, h.Quarantined, h.Dropouts, h.Divergence)
		}
	}

	fmt.Println("\nfinal per-kernel selections:")
	for _, k := range app {
		cfg, cluster, ok := runtime.SelectionFor(k.ID())
		if !ok {
			continue
		}
		fmt.Printf("  %-36s cluster %d  %v\n", k.Name, cluster, cfg)
	}
	return nil
}
