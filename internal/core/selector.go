package core

import (
	"fmt"
	"math"
	"slices"
)

// maxSelectorPreds is the largest prediction vector a Selector compiles:
// its scan order holds one byte per configuration. Larger vectors are
// swept by SelectAmong itself.
const maxSelectorPreds = 256

// Selector is SelectAmong compiled for one prediction vector, for
// callers that select from the same predictions at many caps (the
// runtime at every cap change, the query service on every cache miss).
// SelectAmong keeps the best feasible configuration of a full sweep:
// the highest Perf, the earliest in slice order among equal Perf. The
// selector visits the candidates in exactly that preference order, so
// the first feasible one it meets is SelectAmong's answer, and a
// generous cap touches one or two predictions instead of all of them.
// Its Selections are bitwise equal to SelectAmong's, errors included.
// It keeps a reference to the predictions, which must not change.
type Selector struct {
	preds   []Prediction
	cluster int
	// order lists the indices of the predictions that can win, those
	// whose Perf is neither NaN nor −Inf, by Perf descending; ties
	// keep slice order.
	order []uint8
	// fallbackID is SelectAmong's fallback: the ConfigID of the first
	// prediction with minimum PowerW, or −1 when no PowerW is below
	// +Inf.
	fallbackID int
	// sweep marks a vector the selector does not compile (empty, or
	// longer than maxSelectorPreds): Select then calls SelectAmong.
	sweep bool
}

// NewSelector compiles preds (as produced by PredictAll) for cluster.
//
//lint:deterministic
func NewSelector(preds []Prediction, cluster int) *Selector {
	s := &Selector{preds: preds, cluster: cluster, fallbackID: -1}
	if len(preds) == 0 || len(preds) > maxSelectorPreds {
		s.sweep = true
		return s
	}
	minPow := math.Inf(1)
	for i, p := range preds {
		if !math.IsNaN(p.Perf) && !math.IsInf(p.Perf, -1) {
			s.order = append(s.order, uint8(i))
		}
		if p.PowerW < minPow {
			minPow = p.PowerW
			s.fallbackID = p.ConfigID
		}
	}
	slices.SortStableFunc(s.order, func(a, b uint8) int {
		pa, pb := preds[a].Perf, preds[b].Perf
		switch {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return 0
	})
	return s
}

// Select returns SelectAmong(preds, cluster, capW, z): the first
// candidate in preference order whose PowerW + z·PowerStd fits under
// capW, or else the fallback. As in SelectAmong, a winner or fallback
// whose ConfigID does not index the predictions is an error, and a
// negative winning ConfigID falls back.
//
//lint:deterministic
func (s *Selector) Select(capW, z float64) (Selection, error) {
	if s.sweep {
		return SelectAmong(s.preds, s.cluster, capW, z)
	}
	id, meets := s.fallbackID, false
	for _, i := range s.order {
		p := &s.preds[i]
		if p.PowerW+z*p.PowerStd <= capW {
			if p.ConfigID >= 0 {
				id, meets = p.ConfigID, true
			}
			break
		}
	}
	if id < 0 || id >= len(s.preds) {
		return Selection{}, fmt.Errorf("%w: prediction index %d of %d", ErrNoModel, id, len(s.preds))
	}
	return Selection{
		ConfigID:          id,
		Config:            s.preds[id].Config,
		Predicted:         s.preds[id],
		MeetsCapPredicted: meets,
		Cluster:           s.cluster,
	}, nil
}
