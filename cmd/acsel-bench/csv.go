// The -csv-dir export: characterization stats and evaluation cases as
// CSV — the interchange format for the kind of external statistical
// analysis the paper performed in R (§IV-B lists R 3.0.1 in the
// toolchain). Writers are streaming and allocation-light so full-suite
// exports stay cheap.

package main

import (
	"encoding/csv"
	"io"
	"strconv"

	"acsel/internal/core"
	"acsel/internal/eval"
)

// csvFloat formats a float with shortest exact precision: ParseFloat of
// the result returns the identical float64. A fixed 10-significant-digit
// format (the previous behaviour) silently truncated power/time/counter
// values, so exports no longer round-tripped and downstream statistical
// analysis saw corrupted data.
func csvFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeProfilesCSV streams characterization summaries: one row per
// (kernel, configuration) with mean time, performance, and power, and a
// flag marking Pareto-frontier membership.
func writeProfilesCSV(w io.Writer, profiles []*core.KernelProfile) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kernel_id", "benchmark", "input", "config_id",
		"mean_time_sec", "mean_perf", "mean_power_w", "mean_cpu_w", "mean_nbgpu_w", "on_frontier",
	}); err != nil {
		return err
	}
	for _, kp := range profiles {
		onFront := map[int]bool{}
		for _, pt := range kp.Frontier.Points() {
			onFront[pt.ID] = true
		}
		for _, st := range kp.Stats {
			if err := cw.Write([]string{
				kp.KernelID, kp.Benchmark, kp.Input, strconv.Itoa(st.ConfigID),
				csvFloat(st.MeanTime), csvFloat(st.MeanPerf), csvFloat(st.MeanPower), csvFloat(st.MeanCPUW), csvFloat(st.MeanNBW),
				strconv.FormatBool(onFront[st.ConfigID]),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCasesCSV streams evaluation cases: one row per (kernel, cap,
// method) with the decision and oracle-relative outcome.
func writeCasesCSV(w io.Writer, cases []eval.Case) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kernel_id", "combo", "method", "cap_w",
		"config_id", "device", "cpu_ghz", "threads", "gpu_ghz",
		"true_perf", "true_power_w", "under_limit", "perf_vs_oracle", "power_vs_oracle", "weight",
		"oracle_infeasible",
	}); err != nil {
		return err
	}
	for _, c := range cases {
		if err := cw.Write([]string{
			c.KernelID, c.Combo, c.Method.String(), csvFloat(c.CapW),
			strconv.Itoa(c.Decision.ConfigID), c.Decision.Config.Device.String(),
			csvFloat(c.Decision.Config.CPUFreqGHz), strconv.Itoa(c.Decision.Config.Threads),
			csvFloat(c.Decision.Config.GPUFreqGHz),
			csvFloat(c.Decision.TruePerf), csvFloat(c.Decision.TruePower),
			strconv.FormatBool(c.Under), csvFloat(c.PerfRatio), csvFloat(c.PowerRatio), csvFloat(c.Weight),
			strconv.FormatBool(c.Infeasible),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
