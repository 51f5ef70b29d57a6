// Package hierarchy distributes a cluster-level power budget across
// nodes — the system context the paper opens with (§I: "power
// constraints will be enforced by system-wide power policies ... passed
// down through the machine hierarchy to each rack, node, and core") and
// closes with (§II: "Our model is a key ingredient to maximizing
// performance on a multi-node cluster"). Each node runs the adaptive
// runtime; the divider sets per-node caps, either uniformly, in
// proportion to measured demand, or by water-filling over the nodes'
// *predicted* utility curves — the cluster-scale payoff of the
// per-kernel predicted Pareto frontiers. Divide sees each node as a
// NodeView value: View snapshots an in-process node, and the fleet
// package copies one out of a remote node's report, so the same
// division runs in-process and across node boundaries.
package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/rts"
	"acsel/internal/stats"
)

// Policy selects the budget divider.
type Policy int

const (
	// Uniform splits the budget equally across nodes.
	Uniform Policy = iota
	// DemandProportional splits in proportion to each node's recent
	// measured power demand (feedback-driven, model-free).
	DemandProportional
	// WaterFill allocates watt by watt to the node with the highest
	// predicted marginal performance gain, using the adapted kernels'
	// cached predictions.
	WaterFill
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case DemandProportional:
		return "demand-proportional"
	case WaterFill:
		return "water-fill"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy resolves a policy by its String name — the flag syntax
// of the cluster tools.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{Uniform, DemandProportional, WaterFill} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("hierarchy: unknown policy %q (want uniform, demand-proportional, or water-fill)", s)
}

// Node is one machine in the cluster: an adaptive runtime executing an
// application's kernels each timestep. Name, Runtime and App are fixed
// once the node is in use; the node caches its utility curve.
type Node struct {
	Name    string
	Runtime *rts.Runtime
	App     []kernels.Kernel

	// mu guards the cached curve, the adapted-kernel count it was
	// built from and the runtime generation it was built at. A
	// runtime at generation 0 has adapted nothing, so the zero cache
	// is already that runtime's curve.
	mu      sync.Mutex
	gen     uint64
	curve   Curve
	adapted int
}

// MinNodeCapW is the smallest per-node budget the divider will assign —
// roughly the machine's idle-plus-one-core floor.
const MinNodeCapW = 10.0

// Cluster owns the nodes and the global budget.
type Cluster struct {
	Nodes   []*Node
	BudgetW float64
	Policy  Policy
}

// ErrNoNodes is returned for an empty cluster.
var ErrNoNodes = errors.New("hierarchy: no nodes")

// NewCluster validates and assembles a cluster.
func NewCluster(nodes []*Node, budgetW float64, p Policy) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	// NaN compares false against every bound, so it would sail past the
	// floor check and later feed NaN caps into every node's SetCap.
	if math.IsNaN(budgetW) || math.IsInf(budgetW, 0) {
		return nil, fmt.Errorf("hierarchy: budget must be a finite wattage, got %v", budgetW)
	}
	if budgetW < MinNodeCapW*float64(len(nodes)) {
		return nil, fmt.Errorf("hierarchy: budget %.1f W below floor %.1f W for %d nodes",
			budgetW, MinNodeCapW*float64(len(nodes)), len(nodes))
	}
	for i, n := range nodes {
		if n.Runtime == nil || len(n.App) == 0 {
			return nil, fmt.Errorf("hierarchy: node %d incomplete", i)
		}
	}
	return &Cluster{Nodes: nodes, BudgetW: budgetW, Policy: p}, nil
}

// NodeView is what a budget divider knows of one node: a snapshot of
// its name, recent demand and utility curve. View takes one from an
// in-process node and the fleet layer's Report.View from a remote
// node's report, so the same divider code runs in-process and across
// node boundaries.
type NodeView struct {
	// Name identifies the node. Dividers use it as an
	// order-independent tie-break, so names must be unique within one
	// division.
	Name string
	// DemandW is the node's mean measured power over its recent
	// window; DemandOK is false before any measurement history exists.
	DemandW  float64
	DemandOK bool
	// Curve is the node's predicted utility curve. Callers must not
	// modify it: views share it with the node's cache.
	Curve Curve
}

// Curve is a node's predicted utility as a step function of its power
// cap: the weighted normalized performance its adapted kernels can
// reach under the cap. Utility[j] holds from Breakpoints[j] up to the
// next breakpoint; below the first one the utility is zero.
// Breakpoints are strictly increasing, and a curve built by
// UtilityCurve keeps only those where the utility rises.
type Curve struct {
	Breakpoints []float64
	Utility     []float64
}

// At evaluates the curve at a cap: the utility of the greatest
// breakpoint not above capW, zero below the first breakpoint (and for
// a NaN cap, under which nothing is affordable).
func (c Curve) At(capW float64) float64 {
	i := sort.Search(len(c.Breakpoints), func(j int) bool { return !(c.Breakpoints[j] <= capW) })
	if i == 0 {
		return 0
	}
	return c.Utility[i-1]
}

// UtilityCurve returns the node's utility curve and the number of
// adapted kernels it was built from. The curve changes only when a
// kernel adapts, so it is rebuilt only when the runtime's Generation
// has moved since the last build. Un-adapted nodes get an empty curve
// (zero everywhere: no information yet).
func (n *Node) UtilityCurve() (Curve, int) {
	// Read the generation before the predictions: a kernel adapting
	// in between makes the cached curve newer than its generation,
	// never older, and the next call rebuilds it.
	gen := n.Runtime.Generation()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.gen != gen {
		n.curve, n.adapted = buildCurve(n)
		n.gen = gen
	}
	return n.curve, n.adapted
}

// buildCurve weighs each adapted kernel by its time share in the
// application and merges their predicted frontiers, from the selectors
// and at the margin the runtime selects with, into one curve.
func buildCurve(n *Node) (Curve, int) {
	shareOf := make(map[string]float64, len(n.App))
	for _, k := range n.App {
		shareOf[k.ID()] = k.TimeShare
	}
	keys := n.Runtime.AdaptedKernels()
	weights := make([]float64, 0, len(keys))
	sels := make([]*core.Selector, 0, len(keys))
	for _, key := range keys {
		sel, ok := n.Runtime.SelectorFor(key)
		if !ok {
			continue
		}
		// A kernel absent from the app mix (or with a vanishing share)
		// falls back to an equal share.
		weight, known := shareOf[key]
		if !known || stats.AlmostZero(weight) {
			weight = 1.0 / float64(len(n.App))
		}
		weights = append(weights, weight)
		sels = append(sels, sel)
	}
	return sweepCurve(weights, sels, n.Runtime.VarAwareZ()), len(keys)
}

// sweepCurve builds the utility curve of kernels with the given
// weights by merging their predicted frontiers at margin z. A kernel's
// best affordable performance at a cap is the Perf of the last point
// of its Frontier(z) whose bound PowerW + z·PowerStd fits, the point
// Select picks there, so the breakpoints are the frontiers' merged
// bounds. At each, every kernel in order adds weight·best/maxPerf,
// with best floored at 0 and maxPerf its frontier's top Perf: the same
// terms in the same order as summing each kernel's best affordable
// performance directly, so the totals are bit-identical to that
// evaluation. A kernel whose frontier reaches no positive performance
// contributes nothing. Only breakpoints where the total rises are
// kept.
func sweepCurve(weights []float64, sels []*core.Selector, z float64) Curve {
	fronts := make([][]core.Prediction, len(sels))
	var bps []float64
	for k, s := range sels {
		fronts[k] = s.Frontier(z)
		for _, p := range fronts[k] {
			bps = append(bps, p.PowerW+z*p.PowerStd)
		}
	}
	sort.Float64s(bps)
	bps = slices.Compact(bps)
	total := make([]float64, len(bps))
	for k, front := range fronts {
		if len(front) == 0 || !(front[len(front)-1].Perf > 0) {
			continue
		}
		maxPerf := front[len(front)-1].Perf
		i, best := 0, 0.0
		for j, bp := range bps {
			for ; i < len(front) && front[i].PowerW+z*front[i].PowerStd <= bp; i++ {
				if front[i].Perf > best {
					best = front[i].Perf
				}
			}
			total[j] += weights[k] * best / maxPerf
		}
	}
	var c Curve
	last := 0.0
	for j, u := range total {
		if u > last {
			c.Breakpoints = append(c.Breakpoints, bps[j])
			c.Utility = append(c.Utility, u)
			last = u
		}
	}
	return c
}

// View snapshots an in-process node: its cached utility curve and its
// demand, the mean measured power of its last application timestep
// (its last len(App) steps, or the last rts.StepWindow when the
// application has more kernels than the runtime retains steps).
func View(n *Node) NodeView {
	v := NodeView{Name: n.Name}
	v.Curve, _ = n.UtilityCurve()
	window := min(len(n.App), rts.StepWindow)
	if window == 0 {
		return v
	}
	steps := n.Runtime.LastSteps(window)
	if len(steps) < window {
		return v
	}
	var sum float64
	for _, s := range steps {
		sum += s.PowerW
	}
	v.DemandW, v.DemandOK = sum/float64(window), true
	return v
}

// Divide computes per-node caps for the views under a policy and
// budget, without applying them anywhere. Every policy returns caps
// that sum to the budget exactly (within float tolerance) with each
// cap at least MinNodeCapW.
func Divide(p Policy, views []NodeView, budgetW float64) ([]float64, error) {
	if len(views) == 0 {
		return nil, ErrNoNodes
	}
	if math.IsNaN(budgetW) || math.IsInf(budgetW, 0) {
		return nil, fmt.Errorf("hierarchy: budget must be a finite wattage, got %v", budgetW)
	}
	if budgetW < MinNodeCapW*float64(len(views)) {
		return nil, fmt.Errorf("hierarchy: budget %.1f W below floor %.1f W for %d nodes",
			budgetW, MinNodeCapW*float64(len(views)), len(views))
	}
	switch p {
	case Uniform:
		return uniformShares(len(views), budgetW), nil
	case DemandProportional:
		return demandShares(views, budgetW), nil
	case WaterFill:
		return waterFillShares(views, budgetW), nil
	}
	return nil, fmt.Errorf("hierarchy: unknown policy %d", int(p))
}

// Rebalance computes per-node caps under the policy and applies them.
// It returns the assigned caps in node order.
func (c *Cluster) Rebalance() ([]float64, error) {
	views := make([]NodeView, len(c.Nodes))
	for i, n := range c.Nodes {
		views[i] = View(n)
	}
	caps, err := Divide(c.Policy, views, c.BudgetW)
	if err != nil {
		return nil, err
	}
	for i, n := range c.Nodes {
		if err := n.Runtime.SetCap(caps[i]); err != nil {
			return nil, err
		}
	}
	return caps, nil
}

func uniformShares(n int, budgetW float64) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = budgetW / float64(n)
	}
	return caps
}

// demandShares divides the budget proportionally to each node's mean
// measured power over its most recent steps, with the floor respected.
// Nodes without history fall back to a uniform share. When the summed
// demand is not positive — a cluster whose nodes all report 0 W, which
// fault plans can produce — proportional division would yield NaN caps
// that SetCap rejects, so the whole division falls back to uniform.
func demandShares(views []NodeView, budgetW float64) []float64 {
	n := len(views)
	demand := make([]float64, n)
	total := 0.0
	for i, v := range views {
		w := v.DemandW
		if !v.DemandOK {
			w = budgetW / float64(n)
		}
		demand[i] = w
		total += w
	}
	if !(total > 0) {
		return uniformShares(n, budgetW)
	}
	caps := make([]float64, n)
	spare := budgetW - MinNodeCapW*float64(n)
	for i := range caps {
		caps[i] = MinNodeCapW + spare*demand[i]/total
	}
	return caps
}

// waterFillShares assigns the budget greedily by gain density over
// each node's predicted utility curve — weighted normalized
// performance achievable at a given node cap, from the adapted
// kernels' cached predictions. The curves are step functions that jump
// only at their breakpoints, so the allocator works on those: at each
// round it finds, per node, the affordable breakpoint with the best
// predicted-gain-per-watt, and funds the globally best one until
// nothing affordable improves. Density ties break on node name, so the
// division is invariant to the order the views arrive in.
func waterFillShares(views []NodeView, budgetW float64) []float64 {
	n := len(views)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = MinNodeCapW
	}
	remaining := budgetW - MinNodeCapW*float64(n)
	for {
		bestI, bestBP, bestDensity := -1, 0.0, 0.0
		for i := range views {
			c := &views[i].Curve
			base := c.At(caps[i])
			for j, bp := range c.Breakpoints {
				cost := bp - caps[i]
				if cost <= 1e-9 {
					continue
				}
				if cost > remaining { // breakpoints ascend: none further is affordable
					break
				}
				gain := c.Utility[j] - base
				if gain <= 0 {
					continue
				}
				d := gain / cost
				if d > bestDensity ||
					(bestI >= 0 && bestI != i && d == bestDensity && views[i].Name < views[bestI].Name) { //lint:ignore floatcmp identical inputs yield identical densities; the tie-break keys on exact equality
					bestI, bestBP, bestDensity = i, bp, d
				}
			}
		}
		if bestI < 0 {
			break
		}
		remaining -= bestBP - caps[bestI]
		caps[bestI] = bestBP
	}
	// No affordable breakpoint improves anything: return the residue
	// uniformly (headroom against prediction error).
	for i := range caps {
		caps[i] += remaining / float64(n)
	}
	return caps
}

// StepResult summarizes one node's timestep.
type StepResult struct {
	Node       string
	CapW       float64
	TimeSec    float64
	EnergyJ    float64
	Violations int
	Kernels    int
}

// Step runs one application timestep on every node concurrently and
// returns per-node summaries in node order.
func (c *Cluster) Step() ([]StepResult, error) {
	results := make([]StepResult, len(c.Nodes))
	errs := make([]error, len(c.Nodes))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, node := range c.Nodes {
		// Acquire the semaphore slot before spawning (matching
		// core.Characterize): at most GOMAXPROCS goroutines exist at
		// once, instead of one per node all queued on the channel.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, node *Node) {
			defer wg.Done()
			defer func() { <-sem }()
			r := StepResult{Node: node.Name, CapW: node.Runtime.Cap(), Kernels: len(node.App)}
			for _, k := range node.App {
				s, err := node.Runtime.RunKernel(k)
				if err != nil {
					errs[i] = fmt.Errorf("node %s: %w", node.Name, err)
					return
				}
				r.TimeSec += s.TimeSec * k.TimeShare
				r.EnergyJ += s.EnergyJ * k.TimeShare
				if !s.UnderCap {
					r.Violations++
				}
			}
			results[i] = r
		}(i, node)
	}
	wg.Wait()
	// Nodes fail concurrently; reporting only the first non-nil error
	// would silently drop every other node's failure. Join preserves
	// them all (nil entries are skipped).
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// TotalAssignedW sums the nodes' current caps (must not exceed the
// budget after Rebalance).
func (c *Cluster) TotalAssignedW() float64 {
	total := 0.0
	for _, n := range c.Nodes {
		total += n.Runtime.Cap()
	}
	return total
}
