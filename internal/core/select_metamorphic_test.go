package core

import "testing"

// TestSelectAmongMetamorphic checks properties the paper's selection
// implies, over a trained model's predictions for every profiled
// kernel, on a 1/32 W cap grid from 0 to 60 W and z ∈ {0, ½, 1, 2}:
//
//   - raising the cap never lowers predicted performance: once a cap is
//     predicted to be met it stays met, and at z = 0 even the fallback
//     below the feasible range never outperforms a feasible pick;
//   - raising z never raises predicted performance: a pick predicted to
//     meet the cap at a larger z is met at every smaller z, with at
//     least its performance;
//   - the fallback is always the minimum-predicted-power configuration
//     (the lowest ID on a tie);
//   - MeetsCapPredicted implies PowerW + z·PowerStd ≤ capW.
func TestSelectAmongMetamorphic(t *testing.T) {
	profs, m, _ := trained(t)
	zs := []float64{0, 0.5, 1, 2}
	const gridPerW, maxCapW = 32, 60
	for _, kp := range profs {
		preds, cluster, err := m.PredictAll(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		minPowerID := 0
		for _, p := range preds {
			if p.PowerW < preds[minPowerID].PowerW {
				minPowerID = p.ConfigID
			}
		}
		prevCap := make([]Selection, len(zs))
		for i := 0; i <= maxCapW*gridPerW; i++ {
			capW := float64(i) / gridPerW
			var smallerZ Selection // this cap's pick at the previous z
			for zi, z := range zs {
				sel, err := SelectAmong(preds, cluster, capW, z)
				if err != nil {
					t.Fatal(err)
				}
				at := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s cap %v z %v: "+format, append([]any{kp.KernelID, capW, z}, args...)...)
				}
				if sel.MeetsCapPredicted {
					if bound := sel.Predicted.PowerW + z*sel.Predicted.PowerStd; bound > capW {
						at("claims the cap is met at %v W + %v·%v W = %v W", sel.Predicted.PowerW, z, sel.Predicted.PowerStd, bound)
					}
				} else if sel.ConfigID != minPowerID {
					at("fallback is config %d, minimum predicted power is config %d", sel.ConfigID, minPowerID)
				}
				if prev := prevCap[zi]; i > 0 {
					if prev.MeetsCapPredicted && !sel.MeetsCapPredicted {
						at("predicted to be met at %v W but not here", capW-1.0/gridPerW)
					}
					if (prev.MeetsCapPredicted || z == 0) && sel.Predicted.Perf < prev.Predicted.Perf {
						at("predicted perf fell from %v to %v as the cap rose", prev.Predicted.Perf, sel.Predicted.Perf)
					}
				}
				if zi > 0 && sel.MeetsCapPredicted {
					if !smallerZ.MeetsCapPredicted || smallerZ.Predicted.Perf < sel.Predicted.Perf {
						at("picks %+v, above z %v's %+v", sel.Predicted, zs[zi-1], smallerZ.Predicted)
					}
				}
				prevCap[zi], smallerZ = sel, sel
			}
		}
	}
}
