// Powersweep: sweep the power cap for one kernel and compare every
// power-limiting method against the oracle — a per-kernel slice of the
// paper's Figure 4.
//
//	go run ./examples/powersweep
package main

import (
	"fmt"
	"log"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/sched"
)

func main() {
	const target = "CoMD/Large/ComputeForceLJ"

	// Leave-one-benchmark-out, as the paper prescribes: the model that
	// schedules a CoMD kernel never saw CoMD during training.
	var training, held []kernels.Kernel
	for _, combo := range kernels.Combos() {
		if combo.Benchmark == "CoMD" {
			held = append(held, combo.Kernels...)
			continue
		}
		training = append(training, combo.Kernels...)
	}
	var kernel kernels.Kernel
	for _, k := range held {
		if k.ID() == target {
			kernel = k
		}
	}
	if kernel.Name == "" {
		log.Fatalf("kernel %s not found", target)
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

	// Characterize the held-out kernel to obtain ground truth for the
	// oracle and the frequency limiter's feedback.
	kprofiles, err := core.Characterize(prof, []kernels.Kernel{kernel}, opts)
	if err != nil {
		log.Fatal(err)
	}
	kp := kprofiles[0]
	truth := sched.ProfileTruth{Profile: kp}
	// Predict the kernel's 42 configurations once from its two sample
	// runs; the model-based policies select among them at every cap.
	kpreds, err := model.PredictedFrontier(core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		log.Fatal(err)
	}
	runner := &sched.Runner{Space: prof.Space, Model: model}

	fmt.Printf("power-cap sweep for %s (oracle-normalized performance; * = cap violated)\n\n", target)
	fmt.Printf("%-8s", "cap W")
	methods := append([]sched.Method{sched.MethodOracle}, sched.Methods()...)
	for _, m := range methods {
		fmt.Printf(" %-12s", m)
	}
	fmt.Println()
	for capW := 12.0; capW <= 44; capW += 4 {
		oracle := runner.Oracle(truth, capW)
		fmt.Printf("%-8.0f", capW)
		for _, m := range methods {
			d, err := runner.Decide(m, truth, kpreds, capW)
			if err != nil {
				log.Fatal(err)
			}
			mark := ""
			if !d.MeetsCap(capW) {
				mark = "*"
			}
			fmt.Printf(" %-12s", fmt.Sprintf("%.2f%s", d.TruePerf/oracle.TruePerf, mark))
		}
		fmt.Println()
	}
}
