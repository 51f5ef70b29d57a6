package fleet

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"acsel/internal/checkpoint"
	"acsel/internal/core"
	"acsel/internal/hierarchy"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/rts"
)

var (
	setupOnce sync.Once
	setupErr  error
	gModel    *core.Model
	gApps     [][]kernels.Kernel
)

// sharedModel trains one model (on SMC+LU, like the hierarchy tests)
// and returns application kernel sets to spread across fleet members.
func sharedModel(t testing.TB) (*core.Model, [][]kernels.Kernel) {
	t.Helper()
	setupOnce.Do(func() {
		var training []kernels.Kernel
		var comd, lulesh []kernels.Kernel
		for _, c := range kernels.Combos() {
			switch {
			case c.Benchmark == "CoMD" && c.Input == "Large":
				comd = c.Kernels
			case c.Benchmark == "LULESH" && c.Input == "Small":
				lulesh = c.Kernels
			case c.Benchmark == "SMC" || c.Benchmark == "LU":
				training = append(training, c.Kernels...)
			}
		}
		p := profiler.New()
		opts := core.DefaultTrainOptions()
		opts.Iterations = 1
		opts.K = 4
		profs, err := core.Characterize(p, training, opts)
		if err != nil {
			setupErr = err
			return
		}
		gModel, setupErr = core.Train(p.Space, profs, opts)
		gApps = [][]kernels.Kernel{comd, lulesh}
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return gModel, gApps
}

// fakeClock is the deterministic time seam for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testMember is one live loopback agent: a real runtime behind a real
// HTTP server.
type testMember struct {
	agent *Agent
	rt    *rts.Runtime
	srv   *httptest.Server
}

// startMembers builds n agents with adapted runtimes on loopback
// servers: every kernel has run twice, once on each sample
// configuration, so demand and predicted curves exist. At least one
// served report must carry a curve, or every division the tests make
// would divide nothing.
func startMembers(t *testing.T, clock *fakeClock, n int, capW float64) []*testMember {
	t.Helper()
	model, apps := sharedModel(t)
	members := make([]*testMember, n)
	for i := range members {
		rt, err := rts.New(model, rts.Options{CapW: capW})
		if err != nil {
			t.Fatal(err)
		}
		app := apps[i%len(apps)]
		for run := 0; run < 2; run++ {
			for _, k := range app {
				if _, err := rt.RunKernel(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		name := string(rune('a'+i)) + "-node"
		agent, err := NewAgent(name, rt, app, AgentOptions{
			Coordinator: "unused", Logf: t.Logf, Now: clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		agent.Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		members[i] = &testMember{agent: agent, rt: rt, srv: srv}
	}
	curves := 0
	for _, m := range members {
		rep, err := (&Client{}).Report(context.Background(), m.srv.URL, "")
		if err != nil {
			t.Fatalf("report %s: %v", m.agent.Name(), err)
		}
		if len(rep.Breakpoints) > 0 {
			curves++
		}
	}
	if curves == 0 {
		t.Fatal("no member serves a utility curve: no kernel has adapted")
	}
	return members
}

// join heartbeats each member into the coordinator over HTTP.
func join(t *testing.T, coordURL string, members []*testMember) {
	t.Helper()
	cl := &Client{}
	for _, m := range members {
		hb := Heartbeat{Version: ProtocolVersion, Name: m.agent.Name(), Addr: m.srv.URL}
		if _, err := cl.SendHeartbeat(context.Background(), coordURL, hb); err != nil {
			t.Fatalf("heartbeat %s: %v", m.agent.Name(), err)
		}
	}
}

func startCoordinator(t *testing.T, opts CoordinatorOptions) (*Coordinator, string) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv.URL
}

// TestRebalanceConvergesToFullBudget is the loopback integration test:
// three live agents join, one round divides the whole budget, and
// every runtime runs under its pushed cap.
func TestRebalanceConvergesToFullBudget(t *testing.T) {
	clock := newClock()
	members := startMembers(t, clock, 3, 20)
	const budget = 60.0
	for _, policy := range []hierarchy.Policy{hierarchy.Uniform, hierarchy.DemandProportional, hierarchy.WaterFill} {
		coord, url := startCoordinator(t, CoordinatorOptions{
			BudgetW: budget, Policy: policy, LeaseTTL: 3 * time.Second, Now: clock.Now, Logf: t.Logf,
		})
		join(t, url, members)
		res, err := coord.RebalanceOnce(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.PullFailures != 0 || res.PushFailures != 0 {
			t.Fatalf("%s: clean loopback round had failures: %+v", policy, res)
		}
		if len(res.Caps) != 3 {
			t.Fatalf("%s: pushed %d caps, want 3", policy, len(res.Caps))
		}
		sum := 0.0
		for name, c := range res.Caps {
			if c < hierarchy.MinNodeCapW-1e-9 {
				t.Fatalf("%s: %s assigned %v below floor", policy, name, c)
			}
			sum += c
		}
		if math.Abs(sum-budget) > 1e-6 {
			t.Fatalf("%s: assignment sums to %v, want full budget %v", policy, sum, budget)
		}
		for _, m := range members {
			want := res.Caps[m.agent.Name()]
			if got := m.rt.Cap(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: %s runtime cap %v, pushed %v", policy, m.agent.Name(), got, want)
			}
		}
		if st := coord.Status(); math.Abs(st.AssignedTotalW-budget) > 1e-6 {
			t.Fatalf("%s: status total %v, want %v", policy, st.AssignedTotalW, budget)
		}
	}
}

// TestEvictionRedistributesWatts kills one member's heartbeats and
// checks the next round evicts it and hands its watts to the
// survivors — the full budget again divides over the remaining nodes.
func TestEvictionRedistributesWatts(t *testing.T) {
	clock := newClock()
	members := startMembers(t, clock, 3, 20)
	const budget = 60.0
	coord, url := startCoordinator(t, CoordinatorOptions{
		BudgetW: budget, Policy: hierarchy.DemandProportional,
		LeaseTTL: 3 * time.Second, Now: clock.Now, Logf: t.Logf,
	})
	join(t, url, members)
	if _, err := coord.RebalanceOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The last member goes silent; the others renew their leases.
	clock.Advance(4 * time.Second)
	join(t, url, members[:2])
	res, err := coord.RebalanceOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dead := members[2].agent.Name()
	if len(res.Evicted) != 1 || res.Evicted[0] != dead {
		t.Fatalf("evicted %v, want [%s]", res.Evicted, dead)
	}
	if len(res.Caps) != 2 {
		t.Fatalf("pushed %d caps after eviction, want 2", len(res.Caps))
	}
	sum := 0.0
	for _, c := range res.Caps {
		sum += c
	}
	if math.Abs(sum-budget) > 1e-6 {
		t.Fatalf("survivors hold %v W, want the dead node's watts redistributed to the full %v", sum, budget)
	}
	st := coord.Status()
	if len(st.Members) != 2 {
		t.Fatalf("status still lists %d members", len(st.Members))
	}
	if st.Evictions != 1 {
		t.Fatalf("status evictions = %d, want 1", st.Evictions)
	}
}

// TestCheckpointRestore closes a journaling coordinator mid-flight and
// checks its successor resumes the same round counter and assignment,
// grants restored members a lease grace, and keeps rebalancing.
func TestCheckpointRestore(t *testing.T) {
	clock := newClock()
	members := startMembers(t, clock, 2, 20)
	journal := filepath.Join(t.TempDir(), "fleet.acsj")
	const budget = 48.0

	first, url := startCoordinator(t, CoordinatorOptions{
		BudgetW: budget, Policy: hierarchy.WaterFill, Journal: journal,
		LeaseTTL: 3 * time.Second, Now: clock.Now, Logf: t.Logf,
	})
	join(t, url, members)
	if _, err := first.RebalanceOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if first.Recovered() {
		t.Fatal("fresh coordinator claims recovery")
	}
	before := first.Status()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, _ := startCoordinator(t, CoordinatorOptions{
		BudgetW: budget, Policy: hierarchy.WaterFill, Journal: journal,
		LeaseTTL: 3 * time.Second, Now: clock.Now, Logf: t.Logf,
	})
	if !second.Recovered() {
		t.Fatal("restarted coordinator did not recover from the journal")
	}
	after := second.Status()
	if after.Round != before.Round {
		t.Fatalf("round %d after restart, want %d", after.Round, before.Round)
	}
	if len(after.Members) != len(before.Members) {
		t.Fatalf("%d members after restart, want %d", len(after.Members), len(before.Members))
	}
	for i, m := range after.Members {
		w := before.Members[i]
		if m.Name != w.Name || math.Abs(m.AssignedW-w.AssignedW) > 1e-9 {
			t.Fatalf("member %d restored as %+v, want %+v", i, m, w)
		}
		if m.LeaseSeconds <= 0 {
			t.Fatalf("restored member %s has no lease grace", m.Name)
		}
	}

	// Within the grace lease the successor rebalances the same fleet.
	res, err := second.RebalanceOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range res.Caps {
		sum += c
	}
	if len(res.Caps) != 2 || math.Abs(sum-budget) > 1e-6 {
		t.Fatalf("post-restart round pushed %v (sum %v), want both members at full budget %v",
			res.Caps, sum, budget)
	}
}

// TestCoordinatorJournalCompacts runs a memberless
// coordinator past its first compaction: the journal then holds the
// compacted round's checkpoint followed by one per later round, and a
// restart resumes at the last round.
func TestCoordinatorJournalCompacts(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fleet.acsj")
	opts := CoordinatorOptions{BudgetW: 48, Policy: hierarchy.WaterFill, Journal: journal, Logf: t.Logf}
	c, _ := startCoordinator(t, opts)
	const extra = 3
	for i := 0; i < compactEvery+extra; i++ {
		if _, err := c.RebalanceOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := checkpoint.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+extra {
		t.Fatalf("journal holds %d records after %d rounds, want %d", len(recs), compactEvery+extra, 1+extra)
	}
	for i, rec := range recs {
		cp, err := DecodeAssignment(rec)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Round != compactEvery+i {
			t.Fatalf("record %d is round %d, want %d", i, cp.Round, compactEvery+i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	second, _ := startCoordinator(t, opts)
	if got := second.Round(); got != compactEvery+extra {
		t.Fatalf("restart resumed at round %d, want %d", got, compactEvery+extra)
	}
}

// TestPushFailureKeepsBudgetInvariant points one member at a dead
// address mid-fleet: its push fails, it keeps its previous cap on the
// books, and the round's total never exceeds the budget.
func TestPushFailureKeepsBudgetInvariant(t *testing.T) {
	clock := newClock()
	members := startMembers(t, clock, 3, 20)
	const budget = 60.0
	coord, url := startCoordinator(t, CoordinatorOptions{
		BudgetW: budget, Policy: hierarchy.Uniform, LeaseTTL: time.Hour,
		Client: &Client{Retries: -1, Timeout: 200 * time.Millisecond, backoff: time.Millisecond},
		Now:    clock.Now, Logf: t.Logf,
	})
	join(t, url, members)
	if _, err := coord.RebalanceOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One member dies without missing its (long) lease: pulls and
	// pushes to it now fail.
	members[1].srv.Close()
	res, err := coord.RebalanceOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.PullFailures == 0 && res.PushFailures == 0 {
		t.Fatal("round against a dead member reported no failures")
	}
	if res.AssignedTotalW > budget+budgetSlack {
		t.Fatalf("assigned total %v exceeds budget %v after partial push", res.AssignedTotalW, budget)
	}
	st := coord.Status()
	if st.AssignedTotalW > budget+budgetSlack {
		t.Fatalf("status total %v exceeds budget %v", st.AssignedTotalW, budget)
	}
}

// TestAgentOrphanFallback cuts an agent off from its coordinator and
// checks it drops itself to the floor cap — the min-power degradation
// ladder's territory — then recovers on renewed contact.
func TestAgentOrphanFallback(t *testing.T) {
	clock := newClock()
	members := startMembers(t, clock, 1, 24)
	m := members[0]
	agent, err := NewAgent("orphan-node", m.rt, m.agent.node.App, AgentOptions{
		Coordinator: "http://127.0.0.1:1", // nothing listens here
		Client:      &Client{Retries: -1, Timeout: 200 * time.Millisecond, backoff: time.Millisecond},
		OrphanAfter: 2 * time.Second,
		Logf:        t.Logf,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First failure inside the window: not yet orphaned.
	agent.heartbeat(context.Background(), "http://self")
	if agent.Orphaned() {
		t.Fatal("orphaned before OrphanAfter elapsed")
	}
	clock.Advance(3 * time.Second)
	agent.heartbeat(context.Background(), "http://self")
	if !agent.Orphaned() {
		t.Fatal("agent not orphaned after OrphanAfter without contact")
	}
	if got := m.rt.Cap(); got != hierarchy.MinNodeCapW { //lint:ignore floatcmp the floor is assigned verbatim, never computed
		t.Fatalf("orphan cap %v, want floor %v", got, hierarchy.MinNodeCapW)
	}

	// A coordinator cap push counts as contact and clears the orphan.
	mux := http.NewServeMux()
	agent.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &Client{}
	if _, err := cl.PushCap(context.Background(), srv.URL,
		CapRequest{Version: ProtocolVersion, CapW: 20, Round: 9}, "cap/orphan-node|9"); err != nil {
		t.Fatal(err)
	}
	if agent.Orphaned() {
		t.Fatal("agent still orphaned after an accepted cap push")
	}
	if got := m.rt.Cap(); got != 20 { //lint:ignore floatcmp assigned verbatim
		t.Fatalf("cap %v after push, want 20", got)
	}
}
