package core

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"acsel/internal/apu"
	"acsel/internal/stats"
	"acsel/internal/tree"
	"acsel/internal/wire"
)

// persistedModel is the on-disk form of Model. The configuration space
// is canonical (apu.NewSpace / NewSpaceWithBoost) and therefore stored
// only as a flavor tag plus a length check.
type persistedModel struct {
	Version     int                  `json:"version"`
	K           int                  `json:"k"`
	SpaceLen    int                  `json:"space_len"`
	Boost       bool                 `json:"boost_space"`
	Clusters    []persistedCluster   `json:"clusters"`
	Tree        *tree.Tree           `json:"tree"`
	Assignments map[string]int       `json:"assignments"`
	Options     persistedTrainOption `json:"options"`
}

type persistedCluster struct {
	PerfCPU  *stats.Regression `json:"perf_cpu"`
	PerfGPU  *stats.Regression `json:"perf_gpu"`
	PowerCPU *stats.Regression `json:"power_cpu"`
	PowerGPU *stats.Regression `json:"power_gpu"`
}

type persistedTrainOption struct {
	K            int   `json:"k"`
	Iterations   int   `json:"iterations"`
	LogTargets   bool  `json:"log_targets"`
	TreeMaxDepth int   `json:"tree_max_depth"`
	TreeMinLeaf  int   `json:"tree_min_leaf"`
	Seed         int64 `json:"seed"`
}

// modelVersion guards the serialization format.
const modelVersion = 1

// Save writes the trained model as JSON.
func (m *Model) Save(w io.Writer) error {
	if m.Tree == nil {
		return errors.New("core: saving an untrained model")
	}
	pm := persistedModel{
		Version:     modelVersion,
		K:           m.K,
		SpaceLen:    m.Space.Len(),
		Boost:       m.Space.Len() > apu.NewSpace().Len(),
		Tree:        m.Tree,
		Assignments: m.Assignments,
		Options: persistedTrainOption{
			K: m.Options.K, Iterations: m.Options.Iterations, LogTargets: m.Options.LogTargets,
			TreeMaxDepth: m.Options.TreeMaxDepth, TreeMinLeaf: m.Options.TreeMinLeaf, Seed: m.Options.Seed,
		},
	}
	for _, c := range m.Clusters {
		pm.Clusters = append(pm.Clusters, persistedCluster{
			PerfCPU:  c.PerfByDevice[apu.CPUDevice],
			PerfGPU:  c.PerfByDevice[apu.GPUDevice],
			PowerCPU: c.PowerByDevice[apu.CPUDevice],
			PowerGPU: c.PowerByDevice[apu.GPUDevice],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(pm)
}

// Load restores a model saved with Save. It decodes strictly (see
// wire.Decode): an unknown field, trailing data or a tree node that
// tests a feature the classifier does not have is an error here, not a
// panic in the first selection.
func Load(r io.Reader) (*Model, error) {
	var pm persistedModel
	if err := wire.Decode(r, &pm); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if pm.Version != modelVersion {
		return nil, fmt.Errorf("core: model version %d, want %d", pm.Version, modelVersion)
	}
	space := apu.NewSpace()
	if pm.Boost {
		space = apu.NewSpaceWithBoost()
	}
	if space.Len() != pm.SpaceLen {
		return nil, fmt.Errorf("core: model space size %d does not match machine %d", pm.SpaceLen, space.Len())
	}
	if pm.Tree == nil {
		return nil, errors.New("core: model missing classifier")
	}
	m := &Model{
		K:           pm.K,
		Space:       space,
		Tree:        pm.Tree,
		Assignments: pm.Assignments,
		Options: TrainOptions{
			K: pm.Options.K, Iterations: pm.Options.Iterations, LogTargets: pm.Options.LogTargets,
			TreeMaxDepth: pm.Options.TreeMaxDepth, TreeMinLeaf: pm.Options.TreeMinLeaf, Seed: pm.Options.Seed,
		},
	}
	for i, c := range pm.Clusters {
		if c.PerfCPU == nil || c.PerfGPU == nil || c.PowerCPU == nil || c.PowerGPU == nil {
			return nil, fmt.Errorf("core: cluster %d missing regressions", i)
		}
		m.Clusters = append(m.Clusters, ClusterModel{
			PerfByDevice:  map[apu.Device]*stats.Regression{apu.CPUDevice: c.PerfCPU, apu.GPUDevice: c.PerfGPU},
			PowerByDevice: map[apu.Device]*stats.Regression{apu.CPUDevice: c.PowerCPU, apu.GPUDevice: c.PowerGPU},
		})
	}
	if len(m.Clusters) != m.K {
		return nil, fmt.Errorf("core: %d clusters for k=%d", len(m.Clusters), m.K)
	}
	return m, nil
}

// Hash returns the model's content address: a SHA-256 over its Save
// serialization (encoding/json emits map keys sorted, so the bytes —
// and therefore the hash — are deterministic for a given model). Two
// models predict identically if and only if their serializations
// match, which makes this hash the correct invalidation key for any
// cache of predictions or selections: the query service stamps every
// response with it and purges cached selections whose hash no longer
// matches the live model after a hot reload.
func (m *Model) Hash() (string, error) {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
