package core

import (
	"fmt"
	"math"
	"slices"
)

// Selector is SelectAmong compiled for one prediction vector: the
// online form of one kernel's predictions, which the runtime, the query
// service, the scheduler and node utility curves select through.
// SelectAmong keeps the best feasible configuration of a full sweep:
// the highest Perf, the earliest in slice order among equal Perf. The
// selector visits the candidates in exactly that preference order, so
// the first feasible one it meets is SelectAmong's answer, and a
// generous cap touches one or two predictions instead of all of them.
// Its Selections are bitwise equal to SelectAmong's, errors included.
// It keeps a reference to the predictions, which must not change. A
// nil Selector has no predictions.
type Selector struct {
	preds   []Prediction
	cluster int
	// order lists the indices of the predictions that can win, those
	// whose Perf is neither NaN nor −Inf, by Perf descending; ties
	// keep slice order.
	order []int32
	// fallbackID is SelectAmong's fallback: the ConfigID of the first
	// prediction with minimum PowerW, or −1 when no PowerW is below
	// +Inf.
	fallbackID int
}

// NewSelector compiles preds (as produced by PredictAll) for cluster.
//
//lint:deterministic
func NewSelector(preds []Prediction, cluster int) *Selector {
	s := &Selector{preds: preds, cluster: cluster, order: make([]int32, 0, len(preds)), fallbackID: -1}
	minPow := math.Inf(1)
	for i, p := range preds {
		if !math.IsNaN(p.Perf) && !math.IsInf(p.Perf, -1) {
			s.order = append(s.order, int32(i))
		}
		if p.PowerW < minPow {
			minPow = p.PowerW
			s.fallbackID = p.ConfigID
		}
	}
	// Ties break on the index, which gives the stable order: order was
	// built in ascending index order.
	slices.SortFunc(s.order, func(a, b int32) int {
		pa, pb := preds[a].Perf, preds[b].Perf
		switch {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return int(a - b)
	})
	return s
}

// Select returns SelectAmong(preds, cluster, capW, z): the first
// candidate in preference order whose PowerW + z·PowerStd fits under
// capW, or else the fallback. As in SelectAmong, no predictions, or a
// winner or fallback whose ConfigID does not index them, is an error,
// and a negative winning ConfigID falls back.
//
//lint:deterministic
func (s *Selector) Select(capW, z float64) (Selection, error) {
	if s == nil || len(s.preds) == 0 {
		return Selection{}, fmt.Errorf("%w: no predictions", ErrNoModel)
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

// Frontier returns the predicted Pareto frontier at margin z (§III-C):
// every candidate that is the first to fit in Select(capW, z) at some
// cap, in ascending bound PowerW + z·PowerStd. One walk of the preference order keeps
// each candidate whose bound is below every earlier candidate's, since
// between its bound and theirs it is the first that fits. Bounds
// strictly ascend and Perf never falls; equal-Perf candidates are kept
// when the earlier one in slice order costs more, because Select
// prefers it wherever it fits. NaN bounds are never kept.
//
//lint:deterministic
func (s *Selector) Frontier(z float64) []Prediction {
	if s == nil {
		return nil
	}
	kept := make([]int32, 0, 64) // on the stack for a machine-sized space
	last := math.NaN()           // the bound of the last kept candidate
	for _, i := range s.order {
		p := &s.preds[i]
		b := p.PowerW + z*p.PowerStd
		if math.IsNaN(b) || len(kept) > 0 && !(b < last) {
			continue
		}
		kept, last = append(kept, i), b
	}
	front := make([]Prediction, len(kept))
	for j, i := range kept {
		front[len(kept)-1-j] = s.preds[i]
	}
	return front
}
