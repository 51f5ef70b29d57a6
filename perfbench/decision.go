package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"acsel/internal/core"
)

// decisionCase is one kernel's online decision inputs under one model:
// its two sample runs and the caps it is asked about.
type decisionCase struct {
	model *core.Model
	sr    core.SampleRuns
	caps  []float64
}

// Fixed call counts of the decision probe, so the allocation counts it
// reports are exact per-call figures that repeat run to run.
const (
	probeClassifyPasses    = 50
	probePredictAllPasses  = 10
	probeSelectAmongPasses = 10
)

// probeDecisions times the online decision's stages — Model.Classify,
// Model.PredictAll, core.SelectAmong and Model.SelectUnderCap — over the
// cases, and counts heap allocations per call from runtime.MemStats
// deltas over a fixed number of calls. It also checks that
// SelectUnderCap equals SelectAmong over PredictAll, bit for bit.
func probeDecisions(tr *tracer, cases []decisionCase, out *outcome) error {
	if len(cases) == 0 {
		return fmt.Errorf("decision probe: no cases")
	}
	preds := make([][]core.Prediction, len(cases))
	clusters := make([]int, len(cases))
	for i, c := range cases {
		p, cl, err := c.model.PredictAll(c.sr)
		if err != nil {
			return fmt.Errorf("decision probe: %w", err)
		}
		preds[i], clusters[i] = p, cl
	}

	type stage struct {
		span, us, allocs string
		scale            float64 // ns → reported unit
		calls            func() (int, error)
	}
	stages := []stage{
		{"core.classify", "core.classify_us", "core.classify_allocs", 1e-3, func() (int, error) {
			n := 0
			for pass := 0; pass < probeClassifyPasses; pass++ {
				for _, c := range cases {
					if _, err := c.model.Classify(c.sr); err != nil {
						return n, err
					}
					n++
				}
			}
			return n, nil
		}},
		{"core.predict_all", "core.predict_all_us", "core.predict_all_allocs", 1e-3, func() (int, error) {
			n := 0
			for pass := 0; pass < probePredictAllPasses; pass++ {
				for _, c := range cases {
					if _, _, err := c.model.PredictAll(c.sr); err != nil {
						return n, err
					}
					n++
				}
			}
			return n, nil
		}},
		{"core.select_among", "core.select_among_ns", "core.select_among_allocs", 1, func() (int, error) {
			n := 0
			for pass := 0; pass < probeSelectAmongPasses; pass++ {
				for i, c := range cases {
					for _, capW := range c.caps {
						if _, err := core.SelectAmong(preds[i], clusters[i], capW, 0); err != nil {
							return n, err
						}
						n++
					}
				}
			}
			return n, nil
		}},
		{"core.select_under_cap", "core.select_under_cap_us", "core.select_under_cap_allocs", 1e-3, func() (int, error) {
			n := 0
			for _, c := range cases {
				for _, capW := range c.caps {
					if _, err := c.model.SelectUnderCap(c.sr, capW); err != nil {
						return n, err
					}
					n++
				}
			}
			return n, nil
		}},
	}
	// No collection runs while the probe counts: a cycle landing inside
	// a stage would add the collector's own bookkeeping to the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for _, s := range stages {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		n, err := s.calls()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("decision probe: %s: %w", s.span, err)
		}
		if n == 0 {
			return fmt.Errorf("decision probe: %s made no calls", s.span)
		}
		tr.recordDuration(s.span, 0, 0, t0, d, n)
		out.layers[s.us] = float64(d.Nanoseconds()) / float64(n) * s.scale
		out.layers[s.allocs] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}

	for i, c := range cases {
		for _, capW := range c.caps {
			out.attempted++
			got, err := c.model.SelectUnderCap(c.sr, capW)
			if err != nil {
				out.fail("SelectUnderCap(cap %v): %v", capW, err)
				continue
			}
			want, err := core.SelectAmong(preds[i], clusters[i], capW, 0)
			if err != nil || got != want {
				out.fail("SelectUnderCap(cap %v) = %+v, SelectAmong over PredictAll = %+v (%v)", capW, got, want, err)
			}
		}
	}
	return nil
}
