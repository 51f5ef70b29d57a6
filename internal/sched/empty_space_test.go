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
// Space.Configs[-1] and panic. Decide, DecideNaive and DecideHardened
// must return ErrEmptySpace instead — for a nil space too.
func TestDecideEmptySpace(t *testing.T) {
	truth := ProfileTruth{Profile: &core.KernelProfile{}}
	readings := TrueReadings{Truth: truth}
	for _, r := range []*Runner{
		{Space: &apu.Space{}},
		{Space: nil},
	} {
		entries := map[string]func(Method) (Decision, error){
			"Decide": func(m Method) (Decision, error) {
				return r.Decide(m, truth, nil, 24)
			},
			"DecideNaive": func(m Method) (Decision, error) {
				return r.DecideNaive(m, truth, readings, nil, 24)
			},
			"DecideHardened": func(m Method) (Decision, error) {
				return r.DecideHardened(m, truth, readings, nil, 24)
			},
		}
		for name, decide := range entries {
			for _, m := range append(Methods(), MethodOracle) {
				d, err := decide(m)
				if err == nil {
					t.Fatalf("%s %s over an empty space: got decision %+v, want error", name, m, d)
				}
				if !errors.Is(err, ErrEmptySpace) {
					t.Fatalf("%s %s over an empty space: error %v is not ErrEmptySpace", name, m, err)
				}
			}
		}
	}
}
