// Command acsel-predict runs the online stage (§III-C) for one kernel:
// it loads a trained model, executes the kernel's first two iterations
// on the two sample configurations (Table II), classifies it into a
// cluster, prints the predicted Pareto frontier, and selects the
// configuration predicted to maximize performance under a power cap.
//
// With -remote it asks a running acsel-serve selection service instead
// of loading a model locally; the selection semantics — including the
// typed infeasible-cap error — are identical on both paths.
//
// Usage:
//
//	acsel-predict -model model.json -kernel LULESH/Small/CalcQForElems -cap 22
//	acsel-predict -model model.json -kernel LU/Large/lud -cap 30 -z 1.5
//	acsel-predict -remote http://127.0.0.1:9090 -kernel LU/Small/lud -cap 22
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/query"
)

func main() {
	modelPath := flag.String("model", "model.json", "trained model file from acsel-train")
	kernelID := flag.String("kernel", "", "kernel to schedule, as Benchmark/Input/Name")
	capW := flag.Float64("cap", 25, "power cap in watts")
	z := flag.Float64("z", 0, "variance-aware margin (0 disables; §VI extension)")
	showFrontier := flag.Bool("frontier", true, "print the predicted Pareto frontier")
	remote := flag.String("remote", "", "query a running selection service at this base URL instead of loading -model")
	flag.Parse()

	if err := run(*modelPath, *kernelID, *capW, *z, *showFrontier, *remote); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-predict:", err)
		os.Exit(1)
	}
}

func findKernel(id string) (kernels.Kernel, error) {
	for _, c := range kernels.Combos() {
		for _, k := range c.Kernels {
			if k.ID() == id {
				return k, nil
			}
		}
	}
	return kernels.Kernel{}, fmt.Errorf("unknown kernel %q (want Benchmark/Input/Name, e.g. %q)",
		id, "LULESH/Small/CalcQForElems")
}

func run(modelPath, kernelID string, capW, z float64, showFrontier bool, remote string) error {
	if kernelID == "" {
		return fmt.Errorf("missing -kernel")
	}
	k, err := findKernel(kernelID)
	if err != nil {
		return err
	}
	if remote != "" {
		return runRemote(remote, k, capW, z)
	}
	f, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	model, err := core.Load(f)
	if err != nil {
		return err
	}

	// Online stage: the first two iterations run on the sample configs.
	p := profiler.New()
	cpuRun, err := p.RunConfig(k, apu.SampleConfigCPU(), 0)
	if err != nil {
		return err
	}
	gpuRun, err := p.RunConfig(k, apu.SampleConfigGPU(), 1)
	if err != nil {
		return err
	}
	sr := core.SampleRuns{CPU: cpuRun, GPU: gpuRun}

	cl, err := model.Classify(sr)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s -> cluster %d\n", kernelID, cl)
	fmt.Printf("sample runs: CPU %.4fs @ %.1f W, GPU %.4fs @ %.1f W\n",
		cpuRun.TimeSec, cpuRun.TotalPowerW(), gpuRun.TimeSec, gpuRun.TotalPowerW())

	if showFrontier {
		sel, err := model.PredictedFrontier(sr)
		if err != nil {
			return err
		}
		fmt.Println("predicted Pareto frontier (power W -> perf 1/s):")
		for _, p := range sel.Frontier(0) {
			fmt.Printf("  %6.1f W  %10.2f /s  %v\n", p.PowerW, p.Perf, p.Config)
		}
	}

	var sel core.Selection
	if z > 0 {
		sel, err = model.SelectUnderCapVarAware(sr, capW, z)
	} else {
		sel, err = model.SelectUnderCap(sr, capW)
	}
	if err != nil {
		return err
	}
	if !sel.MeetsCapPredicted {
		// The fallback selection is the minimum-predicted-power config,
		// so its predicted power is the model's feasibility floor.
		return fmt.Errorf("%w: cap %.1f W < minimum feasible %.1f W for %s",
			core.ErrCapInfeasible, capW, sel.Predicted.PowerW, kernelID)
	}
	fmt.Printf("selection under %.1f W: %v\n", capW, sel.Config)
	fmt.Printf("  predicted: %.2f /s at %.1f W (meets cap: %v)\n",
		sel.Predicted.Perf, sel.Predicted.PowerW, sel.MeetsCapPredicted)

	// Validate against the machine: run the chosen configuration once.
	final, err := p.Run(k, sel.ConfigID, 2)
	if err != nil {
		return err
	}
	fmt.Printf("  measured:  %.2f /s at %.1f W\n", final.Perf(), final.TotalPowerW())
	return nil
}

// runRemote asks a selection service for the same decision. The service
// precomputed this kernel's sample runs from the identical deterministic
// online stage, so local and remote selections agree bitwise.
func runRemote(baseURL string, k kernels.Kernel, capW, z float64) error {
	c := &query.Client{BaseURL: baseURL}
	resp, err := c.Select(context.Background(), query.Request{Kernel: k.ID(), CapW: capW, Z: z})
	if err != nil {
		return err
	}
	sel := resp.Selection
	if !sel.MeetsCapPredicted {
		return fmt.Errorf("%w: cap %.1f W < minimum feasible %.1f W for %s (model %s)",
			core.ErrCapInfeasible, capW, resp.MinPowerW, k.ID(), shortHash(resp.ModelHash))
	}
	fmt.Printf("kernel %s -> cluster %d (model %s seq %d, effective cap %.4f W)\n",
		k.ID(), sel.Cluster, shortHash(resp.ModelHash), resp.ModelSeq, resp.EffectiveCapW)
	fmt.Printf("selection under %.1f W: %v\n", capW, sel.Config)
	fmt.Printf("  predicted: %.2f /s at %.1f W (meets cap: %v)\n",
		sel.Predicted.Perf, sel.Predicted.PowerW, sel.MeetsCapPredicted)

	// Validate against the local machine: run the chosen configuration
	// once, exactly as the local path does.
	final, err := profiler.New().RunConfig(k, sel.Config, 2)
	if err != nil {
		return err
	}
	fmt.Printf("  measured:  %.2f /s at %.1f W\n", final.Perf(), final.TotalPowerW())
	return nil
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
