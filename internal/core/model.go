package core

import (
	"errors"
	"fmt"
	"math"

	"acsel/internal/apu"
	"acsel/internal/counters"
	"acsel/internal/profiler"
	"acsel/internal/stats"
	"acsel/internal/tree"
)

func counterNames() []string { return counters.Names() }

// ClusterModel holds one cluster's fitted regressions: a
// performance-scaling model and a power model per device.
type ClusterModel struct {
	PerfByDevice  map[apu.Device]*stats.Regression
	PowerByDevice map[apu.Device]*stats.Regression
}

// Model is the trained offline model: cluster regressions plus the
// classification tree that assigns new kernels to clusters.
type Model struct {
	K        int
	Space    *apu.Space
	Clusters []ClusterModel
	Tree     *tree.Tree
	// Assignments records the training kernels' cluster memberships.
	Assignments map[string]int
	// Options echoes the training configuration.
	Options TrainOptions
}

// SampleRuns carries the two online sample-configuration measurements
// of a new kernel: its first iteration on each device (Table II).
type SampleRuns struct {
	CPU profiler.Sample
	GPU profiler.Sample
}

// ClassifierFeatures builds the classification-tree input from the two
// sample runs: the CPU run's normalized counter metrics, both runs'
// package power, and the GPU:CPU performance ratio — everything
// observable after the kernel's first two iterations.
func ClassifierFeatures(cpu, gpu profiler.Sample) []float64 {
	f := cpu.Counters.Normalize().Vector()
	f = append(f, cpu.TotalPowerW(), gpu.TotalPowerW(), gpu.Perf()/cpu.Perf())
	return f
}

// ClassifierFeatureNames labels ClassifierFeatures entries.
func ClassifierFeatureNames() []string {
	names := append([]string(nil), counterNames()...)
	return append(names, "cpu_sample_power_w", "gpu_sample_power_w", "gpu_cpu_perf_ratio")
}

// Prediction is the model's estimate for one configuration.
type Prediction struct {
	ConfigID int
	Config   apu.Config
	Perf     float64 // predicted throughput (1/s)
	PowerW   float64 // predicted package power
	// PerfStd and PowerStd are residual-based uncertainty estimates,
	// used by the variance-aware selection extension (§VI).
	PerfStd  float64
	PowerStd float64
}

// ErrNoModel is returned when the model lacks a required component.
var ErrNoModel = errors.New("core: model component missing")

// ErrCapInfeasible marks a power cap below the model's minimum feasible
// predicted power: no configuration is predicted to fit, so a selection
// can only be the minimum-power fallback. SelectUnderCap itself still
// returns that fallback (the runtime's degradation ladder wants it);
// callers that treat an unsatisfiable cap as a hard failure — the
// acsel-predict CLI, the query service's remote clients — wrap this
// sentinel so the condition stays testable across process boundaries.
var ErrCapInfeasible = errors.New("core: power cap below minimum feasible predicted power")

// Classify assigns a new kernel to a cluster from its sample runs.
// Its cost is O(tree depth), matching §IV-C.
func (m *Model) Classify(sr SampleRuns) (int, error) {
	if m.Tree == nil {
		return 0, fmt.Errorf("%w: classifier", ErrNoModel)
	}
	return m.Tree.Classify(ClassifierFeatures(sr.CPU, sr.GPU))
}

// minPredictedPerfFrac floors predicted performance at this fraction of
// the device's sample performance; linear extrapolation can otherwise
// go non-positive at space corners.
const minPredictedPerfFrac = 1e-3

// minPredictedPowerW floors predicted power; no configuration of the
// machine idles below a few watts.
const minPredictedPowerW = 3.0

// PredictAll predicts power and performance for every configuration in
// the space for a new kernel, given its sample runs. The per-device
// sample performance anchors the scaling model; power comes directly
// from the cluster's power regression.
func (m *Model) PredictAll(sr SampleRuns) ([]Prediction, int, error) {
	c, err := m.Classify(sr)
	if err != nil {
		return nil, 0, err
	}
	if c < 0 || c >= len(m.Clusters) {
		return nil, 0, fmt.Errorf("core: classifier produced cluster %d of %d", c, len(m.Clusters))
	}
	cm := m.Clusters[c]
	samplePerf := map[apu.Device]float64{
		apu.CPUDevice: sr.CPU.Perf(),
		apu.GPUDevice: sr.GPU.Perf(),
	}
	out := make([]Prediction, m.Space.Len())
	for id, cfg := range m.Space.Configs {
		perfReg := cm.PerfByDevice[cfg.Device]
		powReg := cm.PowerByDevice[cfg.Device]
		if perfReg == nil || powReg == nil {
			return nil, 0, fmt.Errorf("%w: cluster %d device %v", ErrNoModel, c, cfg.Device)
		}
		feats := cfg.Features()
		scale, scaleStd, err := perfReg.PredictWithStd(feats)
		if err != nil {
			return nil, 0, err
		}
		ref := samplePerf[cfg.Device]
		perf := scale * ref
		if min := ref * minPredictedPerfFrac; perf < min {
			perf = min
		}
		pow, powStd, err := powReg.PredictWithStd(feats)
		if err != nil {
			return nil, 0, err
		}
		if pow < minPredictedPowerW {
			pow = minPredictedPowerW
		}
		out[id] = Prediction{
			ConfigID: id,
			Config:   cfg,
			Perf:     perf,
			PowerW:   pow,
			PerfStd:  scaleStd * ref,
			PowerStd: powStd,
		}
	}
	return out, c, nil
}

// PredictedFrontier compiles a new kernel's predictions into the object
// a scheduler consults as power constraints change (§III-C): its
// Frontier is the predicted Pareto frontier, and Select picks the best
// point on it under a cap without re-examining every configuration.
func (m *Model) PredictedFrontier(sr SampleRuns) (*Selector, error) {
	preds, c, err := m.PredictAll(sr)
	if err != nil {
		return nil, err
	}
	return NewSelector(preds, c), nil
}

// Selection is the outcome of an online configuration choice.
type Selection struct {
	ConfigID  int
	Config    apu.Config
	Predicted Prediction
	// MeetsCapPredicted reports whether the predicted power respects
	// the cap (false when the model had to fall back to the
	// minimum-predicted-power configuration).
	MeetsCapPredicted bool
	Cluster           int
}

// SelectUnderCap picks the configuration predicted to maximize
// performance within capW. When no configuration is predicted to fit,
// it falls back to the minimum-predicted-power configuration, mirroring
// the oracle's fallback so comparisons stay aligned.
func (m *Model) SelectUnderCap(sr SampleRuns, capW float64) (Selection, error) {
	return m.selectUnderCap(sr, capW, 0)
}

// SelectUnderCapVarAware is the variance-aware extension (§VI): it
// requires predicted power plus z·σ to fit under the cap, trading
// expected performance for confidence.
func (m *Model) SelectUnderCapVarAware(sr SampleRuns, capW, z float64) (Selection, error) {
	if z < 0 {
		return Selection{}, errors.New("core: negative z")
	}
	return m.selectUnderCap(sr, capW, z)
}

func (m *Model) selectUnderCap(sr SampleRuns, capW, z float64) (Selection, error) {
	preds, c, err := m.PredictAll(sr)
	if err != nil {
		return Selection{}, err
	}
	return SelectAmong(preds, c, capW, z)
}

// SelectAmong runs the cap-selection sweep over already-computed
// predictions (as produced by PredictAll: indexed by configuration ID)
// without copying them. It is the selection rule behind SelectUnderCap
// and the reference for Selector, its compiled form, which every other
// caller selects through; the two return bitwise-identical Selections.
//
//lint:deterministic
func SelectAmong(preds []Prediction, cluster int, capW, z float64) (Selection, error) {
	if len(preds) == 0 {
		return Selection{}, fmt.Errorf("%w: no predictions", ErrNoModel)
	}
	bestID, fallbackID := -1, -1
	bestPerf := math.Inf(-1)
	minPow := math.Inf(1)
	for _, p := range preds {
		bound := p.PowerW + z*p.PowerStd
		if bound <= capW && p.Perf > bestPerf {
			bestPerf = p.Perf
			bestID = p.ConfigID
		}
		if p.PowerW < minPow {
			minPow = p.PowerW
			fallbackID = p.ConfigID
		}
	}
	sel := Selection{Cluster: cluster}
	if bestID >= 0 {
		sel.ConfigID = bestID
		sel.MeetsCapPredicted = true
	} else {
		sel.ConfigID = fallbackID
	}
	if sel.ConfigID < 0 || sel.ConfigID >= len(preds) {
		return Selection{}, fmt.Errorf("%w: prediction index %d of %d", ErrNoModel, sel.ConfigID, len(preds))
	}
	sel.Config = preds[sel.ConfigID].Config
	sel.Predicted = preds[sel.ConfigID]
	return sel, nil
}

// MinPredictedPowerW returns the minimum predicted package power across
// predictions — the feasibility floor a cap is measured against.
func MinPredictedPowerW(preds []Prediction) float64 {
	minPow := math.Inf(1)
	for _, p := range preds {
		if p.PowerW < minPow {
			minPow = p.PowerW
		}
	}
	return minPow
}

// RenderTree returns the classification tree in the indented format of
// the paper's Figure 3.
func (m *Model) RenderTree() string {
	if m.Tree == nil {
		return "<no classifier>"
	}
	return m.Tree.Render()
}

// ClusterSizes returns the number of training kernels per cluster.
func (m *Model) ClusterSizes() []int {
	sizes := make([]int, m.K)
	for _, c := range m.Assignments {
		if c >= 0 && c < m.K {
			sizes[c]++
		}
	}
	return sizes
}
