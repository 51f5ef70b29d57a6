package fleet

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"acsel/internal/fault"
	"acsel/internal/hierarchy"
)

func dropAll() *fault.Injector {
	return fault.NewInjector(fault.Scenario{
		Name:  "drop-all",
		Rules: []fault.Rule{{Site: fault.SiteNet, Kind: fault.NetDrop, Prob: 1}},
	}, 1)
}

// TestClientDropNeverReachesPeer checks an injected drop fails the RPC
// before any bytes leave: the server must see zero requests, and the
// call must fail after exhausting its retries.
func TestClientDropNeverReachesPeer(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()
	cl := &Client{Faults: dropAll(), Retries: 2, backoff: time.Millisecond}
	_, err := cl.Report(context.Background(), srv.URL, fault.EventKey("report/x", 0))
	if err == nil {
		t.Fatal("pull succeeded under a certain drop")
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("dropped RPC reached the server %d time(s)", got)
	}
}

// TestClientCorruptionRejected scrambles every response body and
// checks the pull fails decode/validation instead of returning a
// mangled report.
func TestClientCorruptionRejected(t *testing.T) {
	rep := Report{Version: ProtocolVersion, Name: "x", CapW: 20,
		Breakpoints: []float64{10, 20}, Utility: []float64{0.5, 1}}
	mux := http.NewServeMux()
	mux.HandleFunc(PathReport, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rep)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	inj := fault.NewInjector(fault.Scenario{
		Name:  "corrupt-all",
		Rules: []fault.Rule{{Site: fault.SiteNet, Kind: fault.NetCorrupt, Prob: 1, Magnitude: 64}},
	}, 1)
	cl := &Client{Faults: inj, Retries: 1, backoff: time.Millisecond}
	if _, err := cl.Report(context.Background(), srv.URL, fault.EventKey("report/x", 0)); err == nil {
		t.Fatal("pull returned a corrupted report as valid")
	}
	// Clean client against the same server: fine.
	if _, err := (&Client{}).Report(context.Background(), srv.URL, "k|0"); err != nil {
		t.Fatalf("clean pull failed: %v", err)
	}
}

// TestNetFlakyRoundsHoldInvariants runs several rebalance rounds under
// the net-flaky chaos scenario — drops, delays, and corruption on the
// RPC seam — and checks the budget invariant survives every partial
// round: the books never assign more than the budget, and no node ever
// runs below the floor.
func TestNetFlakyRoundsHoldInvariants(t *testing.T) {
	clock := newClock()
	members := startMembers(t, clock, 3, 20)
	const budget = 60.0
	inj, err := fault.ParsePlan("net-flaky:5")
	if err != nil {
		t.Fatal(err)
	}
	coord, url := startCoordinator(t, CoordinatorOptions{
		BudgetW: budget, Policy: hierarchy.WaterFill, LeaseTTL: time.Hour,
		Client: &Client{Faults: inj, Retries: 1, backoff: time.Millisecond},
		Now:    clock.Now, Logf: t.Logf,
	})
	join(t, url, members)
	sawFailure := false
	for round := 0; round < 8; round++ {
		res, err := coord.RebalanceOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.PullFailures > 0 || res.PushFailures > 0 {
			sawFailure = true
		}
		if res.AssignedTotalW > budget+budgetSlack {
			t.Fatalf("round %d: assigned %v exceeds budget %v", round, res.AssignedTotalW, budget)
		}
		for _, m := range members {
			if c := m.rt.Cap(); c < hierarchy.MinNodeCapW-1e-9 {
				t.Fatalf("round %d: %s runs at %v W, below floor", round, m.agent.Name(), c)
			}
		}
	}
	if !sawFailure {
		t.Log("net-flaky:5 injected no failures across 8 rounds; invariants checked anyway")
	}
	if st := coord.Status(); math.Abs(st.AssignedTotalW-budget) > budget {
		t.Fatalf("final assignment %v is not even near the budget", st.AssignedTotalW)
	}
}
