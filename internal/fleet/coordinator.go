package fleet

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"acsel/internal/checkpoint"
	"acsel/internal/fault"
	"acsel/internal/hierarchy"
	"acsel/internal/wire"
)

// budgetSlack absorbs floating-point noise when checking the
// total-assignment invariant.
const budgetSlack = 1e-6

// compactEvery is how many rounds pass between journal compactions:
// every compactEvery-th checkpoint replaces the journal instead of
// extending it, so the journal does not grow without bound.
const compactEvery = 64

// CoordinatorOptions configures the fleet coordinator.
type CoordinatorOptions struct {
	// BudgetW is the fleet-wide power budget to divide.
	BudgetW float64
	// Policy selects the divider (uniform, demand-proportional,
	// water-fill).
	Policy hierarchy.Policy
	// LeaseTTL is how long a membership lasts without a heartbeat
	// (default 3s). Members past their lease are evicted at the start
	// of the next round and their watts redistributed.
	LeaseTTL time.Duration
	// Journal, when non-empty, persists an assignment checkpoint after
	// every round; a restarted coordinator resumes membership and round
	// counter from it.
	Journal string
	// Client issues report pulls and cap pushes (a zero Client if nil).
	Client *Client
	// Logf receives round events (log.Printf if nil).
	Logf func(format string, args ...any)
	// Now is the clock (time.Now if nil); tests pin it.
	Now func() time.Time
}

// member is the coordinator's book entry for one node.
type member struct {
	name     string
	addr     string
	deadline time.Time
	// report is the last good report (nil before the first successful
	// pull; kept across pull failures so a flaky node divides on stale
	// rather than no information).
	report *Report
	// assignedW is the last cap this coordinator successfully pushed;
	// 0 means never pushed.
	assignedW float64
}

// Coordinator maintains lease-based fleet membership and runs
// rebalance rounds, paced by its caller (RebalanceOnce): pull reports
// in parallel, divide the budget with the hierarchy dividers, push
// caps transactionally (decreases before increases, so the fleet total
// never exceeds the budget mid-round).
type Coordinator struct {
	opts CoordinatorOptions

	mu        sync.Mutex
	members   map[string]*member
	round     int
	evictions int
	recovered bool
	journal   *checkpoint.Writer
}

// NewCoordinator validates options and, when a journal is configured,
// restores the last checkpointed assignment: members come back with
// their previous caps on the books and one fresh lease TTL of grace to
// heartbeat again.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if math.IsNaN(opts.BudgetW) || math.IsInf(opts.BudgetW, 0) || opts.BudgetW < hierarchy.MinNodeCapW {
		return nil, fmt.Errorf("fleet: budget %v W cannot fund even one node (floor %v W)",
			opts.BudgetW, hierarchy.MinNodeCapW)
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 3 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &Client{}
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &Coordinator{opts: opts, members: map[string]*member{}}
	if opts.Journal != "" {
		w, recs, _, err := checkpoint.OpenAppend(opts.Journal)
		if err != nil {
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		c.journal = w
		if cp, ok := LastAssignment(recs); ok {
			grace := opts.Now().Add(opts.LeaseTTL)
			for _, m := range cp.Members {
				c.members[m.Name] = &member{
					name: m.Name, addr: m.Addr, deadline: grace, assignedW: m.AssignedW,
				}
				mNodeCapWatts.With(m.Name).Set(m.AssignedW)
			}
			c.round = cp.Round
			c.recovered = true
			mRestores.Inc()
			opts.Logf("fleet coordinator: resumed at round %d with %d member(s) from %s",
				cp.Round, len(cp.Members), opts.Journal)
			if cp.BudgetW != opts.BudgetW { //lint:ignore floatcmp exact flag-value comparison, only to warn the operator of a changed budget
				opts.Logf("fleet coordinator: budget changed across restart: %.1f W -> %.1f W",
					cp.BudgetW, opts.BudgetW)
			}
		}
	}
	return c, nil
}

// Close releases the journal.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	return err
}

// Recovered reports whether this coordinator resumed from a journal.
func (c *Coordinator) Recovered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

// Round returns the number of completed rebalance rounds.
func (c *Coordinator) Round() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

// Register installs the coordinator's HTTP handlers (POST
// PathHeartbeat, GET PathMembers) on a mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET "+PathMembers, c.handleMembers)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var hb Heartbeat
	if err := wire.Decode(req.Body, &hb); err != nil {
		badRequest(w, "bad heartbeat: %v", err)
		return
	}
	if hb.Version != ProtocolVersion {
		badRequest(w, "heartbeat version %d (want %d)", hb.Version, ProtocolVersion)
		return
	}
	if hb.Name == "" || hb.Addr == "" {
		badRequest(w, "heartbeat needs name and addr")
		return
	}
	c.mu.Lock()
	m, ok := c.members[hb.Name]
	if !ok {
		m = &member{name: hb.Name}
		c.members[hb.Name] = m
		mJoins.Inc()
		c.opts.Logf("fleet coordinator: %s joined from %s", hb.Name, hb.Addr)
	}
	m.addr = hb.Addr
	m.deadline = c.opts.Now().Add(c.opts.LeaseTTL)
	assigned := m.assignedW
	c.mu.Unlock()
	mHeartbeats.Inc()
	wire.WriteJSON(w, http.StatusOK, HeartbeatResponse{
		LeaseMillis: c.opts.LeaseTTL.Milliseconds(),
		AssignedW:   assigned,
	})
}

func (c *Coordinator) handleMembers(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, c.Status())
}

// Status snapshots the coordinator for diagnostics (GET PathMembers).
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	st := Status{
		Version:   ProtocolVersion,
		Round:     c.round,
		BudgetW:   c.opts.BudgetW,
		Policy:    c.opts.Policy.String(),
		Recovered: c.recovered,
		Evictions: c.evictions,
	}
	for _, name := range c.memberNamesLocked() {
		m := c.members[name]
		st.AssignedTotalW += m.assignedW
		st.Members = append(st.Members, MemberStatus{
			Name:         m.name,
			Addr:         m.addr,
			AssignedW:    m.assignedW,
			HasReport:    m.report != nil,
			LeaseSeconds: m.deadline.Sub(now).Seconds(),
		})
	}
	return st
}

// memberNamesLocked returns the member names sorted; c.mu must be held.
func (c *Coordinator) memberNamesLocked() []string {
	names := make([]string, 0, len(c.members))
	for name := range c.members {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RoundResult summarizes one rebalance round.
type RoundResult struct {
	// Round is the round number this result belongs to (0-based).
	Round int
	// Evicted names members whose leases expired this round.
	Evicted []string
	// Caps holds the cap per member that acknowledged a push this
	// round.
	Caps map[string]float64
	// PullFailures and PushFailures count members whose report pull or
	// cap push failed after all retries.
	PullFailures int
	PushFailures int
	// AssignedTotalW is the fleet total on the books after the round.
	AssignedTotalW float64
}

// RebalanceOnce runs one full round: evict expired leases, pull every
// member's report in parallel, divide the budget over the reported
// curves, and push the new caps ordered decreases-first so the summed
// assignment stays within budget at every point of the push sequence —
// including when a push in the middle fails.
func (c *Coordinator) RebalanceOnce(ctx context.Context) (RoundResult, error) {
	defer mRebalanceSeconds.Time()()

	c.mu.Lock()
	round := c.round
	res := RoundResult{Round: round, Caps: map[string]float64{}}
	now := c.opts.Now()
	for _, name := range c.memberNamesLocked() {
		if now.After(c.members[name].deadline) {
			delete(c.members, name)
			res.Evicted = append(res.Evicted, name)
			c.evictions++
			mEvictions.Inc()
			mNodeCapWatts.With(name).Set(0)
		}
	}
	type pullTarget struct {
		name, addr string
	}
	var targets []pullTarget
	for _, name := range c.memberNamesLocked() {
		m := c.members[name]
		targets = append(targets, pullTarget{m.name, m.addr})
	}
	c.mu.Unlock()
	for _, name := range res.Evicted {
		c.opts.Logf("fleet coordinator: round %d: evicted %s (lease expired); its watts return to the pool",
			round, name)
	}
	if len(targets) == 0 {
		c.finishRound(&res)
		return res, nil
	}

	// Pull reports in parallel; each pull has its own timeout/retry
	// budget inside the client. Each goroutine writes only its own
	// slice index.
	reports := make([]*Report, len(targets))
	failed := make([]bool, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t pullTarget) {
			defer wg.Done()
			rep, err := c.opts.Client.Report(ctx, t.addr, fault.EventKey("report/"+t.name, round))
			if err != nil {
				failed[i] = true
				c.opts.Logf("fleet coordinator: round %d: pull from %s failed: %v", round, t.name, err)
				return
			}
			if rep.Name != t.name {
				failed[i] = true
				c.opts.Logf("fleet coordinator: round %d: %s reported as %q; ignoring", round, t.name, rep.Name)
				return
			}
			reports[i] = &rep
		}(i, t)
	}
	wg.Wait()
	for _, f := range failed {
		if f {
			mPullFailures.Inc()
			res.PullFailures++
		}
	}

	// Fold fresh reports into the books and build the divider views in
	// name order; a member with no report yet divides as an empty view.
	type pushTarget struct {
		name, addr      string
		current, target float64
	}
	var pushes []pushTarget
	c.mu.Lock()
	var views []hierarchy.NodeView
	for i, t := range targets {
		m, ok := c.members[t.name]
		if !ok { // evicted or replaced mid-pull
			continue
		}
		if reports[i] != nil {
			m.report = reports[i]
		}
		rep := Report{Version: ProtocolVersion, Name: m.name}
		if m.report != nil {
			rep = *m.report
		}
		views = append(views, rep.View())
		cur := m.assignedW
		if cur <= 0 && m.report != nil {
			cur = m.report.CapW // never pushed: the node's own local cap, from its report
		}
		pushes = append(pushes, pushTarget{name: m.name, addr: m.addr, current: cur})
	}
	budget, policy := c.opts.BudgetW, c.opts.Policy
	c.mu.Unlock()
	if len(views) == 0 {
		c.finishRound(&res)
		return res, nil
	}

	caps, err := hierarchy.Divide(policy, views, budget)
	if err != nil {
		// Typically: more members than the budget can floor-fund. The
		// round still advances; the fleet keeps its previous caps.
		c.finishRound(&res)
		return res, fmt.Errorf("fleet: round %d: divide over %d member(s): %w", round, len(views), err)
	}
	for i := range pushes {
		pushes[i].target = caps[i]
	}

	// Transactional push: decreases first, so the running total never
	// exceeds max(budget, the pre-round total) and — once the decreases
	// have landed — never exceeds the budget. An increase is skipped if
	// an earlier failed decrease would leave it unaffordable.
	sort.Slice(pushes, func(i, j int) bool {
		di, dj := pushes[i].target-pushes[i].current, pushes[j].target-pushes[j].current
		if di != dj { //lint:ignore floatcmp plain ordering of two float deltas; ties fall through to the name tie-break
			return di < dj
		}
		return pushes[i].name < pushes[j].name
	})
	total := 0.0
	for _, p := range pushes {
		total += p.current
	}
	for _, p := range pushes {
		delta := p.target - p.current
		if delta > 0 && total+delta > budget+budgetSlack {
			mPushFailures.Inc()
			res.PushFailures++
			c.opts.Logf("fleet coordinator: round %d: holding back %.1f W raise for %s (total %.1f W would exceed budget %.1f W)",
				round, delta, p.name, total+delta, budget)
			continue
		}
		creq := CapRequest{Version: ProtocolVersion, CapW: p.target, Round: round}
		if _, err := c.opts.Client.PushCap(ctx, p.addr, creq, fault.EventKey("cap/"+p.name, round)); err != nil {
			mPushFailures.Inc()
			res.PushFailures++
			c.opts.Logf("fleet coordinator: round %d: cap push to %s failed (%v); node keeps %.1f W and its local ladder",
				round, p.name, err, p.current)
			continue
		}
		total += delta
		res.Caps[p.name] = p.target
		mPushes.Inc()
		mNodeCapWatts.With(p.name).Set(p.target)
		c.mu.Lock()
		if m, ok := c.members[p.name]; ok {
			m.assignedW = p.target
		}
		c.mu.Unlock()
	}

	c.finishRound(&res)
	return res, nil
}

// finishRound advances the round counter, refreshes the fleet-total
// gauge, and checkpoints the assignment.
func (c *Coordinator) finishRound(res *RoundResult) {
	c.mu.Lock()
	c.round++
	cp := AssignmentCheckpoint{
		Round:   c.round,
		BudgetW: c.opts.BudgetW,
		Policy:  c.opts.Policy.String(),
	}
	total := 0.0
	for _, name := range c.memberNamesLocked() {
		m := c.members[name]
		total += m.assignedW
		cp.Members = append(cp.Members, MemberCheckpoint{Name: m.name, Addr: m.addr, AssignedW: m.assignedW})
	}
	res.AssignedTotalW = total
	journal := c.journal
	compact := c.round%compactEvery == 0
	c.mu.Unlock()
	mAssignedWatts.Set(total)
	mRounds.Inc()

	if journal == nil {
		return
	}
	rec, err := EncodeAssignment(cp)
	if err != nil {
		c.opts.Logf("fleet coordinator: checkpoint encode failed: %v", err)
		return
	}
	if compact {
		err := journal.Compact(rec)
		if err == nil {
			mCheckpoints.Inc()
			return
		}
		// The old journal is still in place and still open:
		// checkpoint onto it instead.
		c.opts.Logf("fleet coordinator: journal compaction failed: %v", err)
	}
	if err := journal.Append(rec); err != nil {
		c.opts.Logf("fleet coordinator: checkpoint append failed: %v", err)
		return
	}
	_ = journal.Sync()
	mCheckpoints.Inc()
}
