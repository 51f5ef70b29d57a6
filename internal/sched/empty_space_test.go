package sched

import (
	"errors"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/core"
)

// TestDecideEmptySpace is the regression test for the empty-space
// panic: Oracle's fallback ID stays -1 over zero configurations and
// the FL baselines' IDOf lookups miss, so every policy used to index
// Space.Configs[-1] and panic. Decide must return ErrEmptySpace
// instead — for a nil space too.
func TestDecideEmptySpace(t *testing.T) {
	truth := ProfileTruth{Profile: &core.KernelProfile{}}
	for _, r := range []*Runner{
		{Space: &apu.Space{}},
		{Space: nil},
	} {
		for _, m := range append(Methods(), MethodOracle) {
			d, err := r.Decide(m, truth, core.Predictions{}, 24)
			if err == nil {
				t.Fatalf("%s over an empty space: got decision %+v, want error", m, d)
			}
			if !errors.Is(err, ErrEmptySpace) {
				t.Fatalf("%s over an empty space: error %v is not ErrEmptySpace", m, err)
			}
		}
	}
}
