// Lulesh: drive the full LULESH proxy application (20 kernels executed
// in sequence each timestep, weighted by their time shares) under a
// node power cap, with per-kernel adaptive configuration selection.
// After the first two iterations of each kernel the configuration is
// fixed (§IV-C), so steady-state timesteps pay no selection overhead.
//
//	go run ./examples/lulesh
package main

import (
	"fmt"
	"log"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/sched"
)

const capW = 24.0

func main() {
	// Train on everything except LULESH (leave-one-benchmark-out).
	var training []kernels.Kernel
	var app []kernels.Kernel
	for _, combo := range kernels.Combos() {
		if combo.Benchmark == "LULESH" {
			if combo.Input == "Large" {
				app = combo.Kernels
			}
			continue
		}
		training = append(training, combo.Kernels...)
	}

	prof := profiler.New()
	opts := core.DefaultTrainOptions()
	profiles, err := core.Characterize(prof, training, opts)
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Train(prof.Space, profiles, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("LULESH Large, %d kernels, node power cap %.0f W\n\n", len(app), capW)

	// Online: the first two iterations of each kernel are the sample
	// runs; afterwards each kernel is pinned to its selected config.
	type pinned struct {
		kernel kernels.Kernel
		sel    core.Selection
	}
	var plan []pinned
	for _, k := range app {
		cpuRun, err := prof.RunConfig(k, apu.SampleConfigCPU(), 0)
		if err != nil {
			log.Fatal(err)
		}
		gpuRun, err := prof.RunConfig(k, apu.SampleConfigGPU(), 1)
		if err != nil {
			log.Fatal(err)
		}
		sel, err := model.SelectUnderCap(core.SampleRuns{CPU: cpuRun, GPU: gpuRun}, capW)
		if err != nil {
			log.Fatal(err)
		}
		plan = append(plan, pinned{k, sel})
	}

	// Steady state: run 3 timesteps; account time and energy weighted by
	// each kernel's share of the timestep.
	var adaptiveTime, adaptiveEnergy float64
	var violations int
	fmt.Printf("%-34s %-7s %-28s %-8s %-8s\n", "kernel", "cluster", "config", "watts", "share")
	for _, p := range plan {
		s, err := prof.Run(p.kernel, p.sel.ConfigID, 2)
		if err != nil {
			log.Fatal(err)
		}
		weightedTime := s.TimeSec * p.kernel.TimeShare
		adaptiveTime += weightedTime
		adaptiveEnergy += weightedTime * s.TotalPowerW()
		if s.TotalPowerW() > capW {
			violations++
		}
		fmt.Printf("%-34s %-7d %-28v %-8.1f %-8.2f\n",
			p.kernel.Name, p.sel.Cluster, p.sel.Config, s.TotalPowerW(), p.kernel.TimeShare)
	}

	// Compare against the naive baselines running the whole app.
	runner := &sched.Runner{Space: prof.Space}
	appProfiles, err := core.Characterize(prof, app, opts)
	if err != nil {
		log.Fatal(err)
	}
	baseline := func(m sched.Method) (time, energy float64, violations int) {
		for _, kp := range appProfiles {
			truth := sched.ProfileTruth{Profile: kp}
			d, err := runner.Decide(m, truth, nil, capW)
			if err != nil {
				log.Fatal(err)
			}
			wt := 1 / d.TruePerf * kp.TimeShare
			time += wt
			energy += wt * d.TruePower
			if !d.MeetsCap(capW) {
				violations++
			}
		}
		return
	}
	cpuTime, cpuEnergy, cpuViol := baseline(sched.MethodCPUFL)
	gpuTime, gpuEnergy, gpuViol := baseline(sched.MethodGPUFL)

	fmt.Printf("\nper-timestep totals (weighted by kernel share):\n")
	fmt.Printf("%-10s %-12s %-12s %-12s\n", "method", "time (s)", "energy (J)", "violations")
	fmt.Printf("%-10s %-12.4f %-12.2f %d/%d\n", "Model", adaptiveTime, adaptiveEnergy, violations, len(plan))
	fmt.Printf("%-10s %-12.4f %-12.2f %d/%d\n", "CPU+FL", cpuTime, cpuEnergy, cpuViol, len(appProfiles))
	fmt.Printf("%-10s %-12.4f %-12.2f %d/%d\n", "GPU+FL", gpuTime, gpuEnergy, gpuViol, len(appProfiles))
}
