// Package fleet lifts the cluster power-budget hierarchy out of a
// single process: the machine-wide division the paper frames in §I
// ("power constraints ... passed down through the machine hierarchy to
// each rack, node, and core") runs here across real node boundaries,
// over HTTP/JSON. Each node runs an Agent (embedded in acsel-serve)
// that exposes its runtime's demand summary and adapted-kernel
// predicted utility curve and accepts cap pushes; a Coordinator
// (cmd/acsel-fleet) maintains lease-based membership from agent
// heartbeats and, each time its caller runs a round, pulls node
// reports in parallel with per-node timeout/retry/backoff, runs the
// internal/hierarchy dividers over the reports' NodeView copies, and
// pushes new caps transactionally — decreases before increases, so the
// summed assignment never exceeds the budget even mid-push or
// mid-failure.
//
// Failure semantics: a node that stops heartbeating misses its lease
// and is evicted at the next round, its watts redistributed across the
// survivors; a node whose report pull fails keeps its last known
// report (or an empty one, which the dividers treat as
// no-information); a node whose cap push fails keeps its previous cap
// on the coordinator's books, and the node itself — if it has lost the
// coordinator entirely — drops to the MinNodeCapW floor, where the
// runtime's min-power degradation ladder guards it. All RPCs cross the
// internal/fault SiteNet seam, so chaos tests can deterministically
// drop, delay, or corrupt any exchange.
//
// The wire code is internal/wire, shared with the selection service:
// both ends decode bodies strictly (over 1 MiB, unknown fields and
// trailing data are rejected), every 4xx answers the JSON envelope
// {"error","code"} (bad_request, or cap_refused for a refused cap),
// and the mux answers a wrong method with 405. Retries stay here in
// Client; the selection service has no caller that retries.
package fleet

import (
	"fmt"
	"math"
	"slices"

	"acsel/internal/hierarchy"
)

// ProtocolVersion guards the wire schema; peers reject other versions
// rather than guessing at field meanings.
const ProtocolVersion = 1

// HTTP paths of the fleet protocol. Report and Cap are served by
// agents; Heartbeat and Members by the coordinator.
const (
	// PathReport is GET: the agent's current Report.
	PathReport = "/fleet/report"
	// PathCap is POST CapRequest: apply a new node power cap.
	PathCap = "/fleet/cap"
	// PathHeartbeat is POST Heartbeat: join or renew a membership lease.
	PathHeartbeat = "/fleet/heartbeat"
	// PathMembers is GET: the coordinator's Status document.
	PathMembers = "/fleet/members"
)

// Report is one node's self-description: its measured power demand and
// the predicted utility curve of its adapted kernels, in the wire form
// of a hierarchy.Curve. The curve is a step function, so its
// breakpoints and their utilities reconstruct it exactly — the
// dividers run on a remote Report precisely as they would on the local
// node (see Report.View). An agent sends only the breakpoints where
// the utility rises; a receiver accepts any non-decreasing curve.
type Report struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// CapW is the cap the node currently runs under — the
	// coordinator's notion of "current" for a node it has not yet
	// assigned.
	CapW float64 `json:"cap_w"`
	// DemandW is the node's mean measured power over its recent
	// window; DemandOK is false before any history exists.
	DemandW  float64 `json:"demand_w"`
	DemandOK bool    `json:"demand_ok"`
	// Breakpoints are strictly increasing node caps at which the
	// utility curve jumps; Utility[i] is the curve's value from
	// Breakpoints[i] up to the next breakpoint (zero below the first).
	Breakpoints []float64 `json:"breakpoints,omitempty"`
	Utility     []float64 `json:"utility,omitempty"`
	// AdaptedKernels and Steps are diagnostics (how much the node has
	// learned and run so far).
	AdaptedKernels int `json:"adapted_kernels"`
	Steps          int `json:"steps"`
}

// Validate checks a report's shape — the receiving coordinator's guard
// against corrupt or hostile payloads. Breakpoints must be finite,
// positive, and strictly increasing; utilities finite, non-negative,
// and non-decreasing (a larger cap can only admit more configurations).
func (r Report) Validate() error {
	if r.Version != ProtocolVersion {
		return fmt.Errorf("fleet: report version %d (want %d)", r.Version, ProtocolVersion)
	}
	if r.Name == "" {
		return fmt.Errorf("fleet: report without a node name")
	}
	if math.IsNaN(r.CapW) || math.IsInf(r.CapW, 0) || r.CapW < 0 {
		return fmt.Errorf("fleet: report %s: cap %v is not a non-negative wattage", r.Name, r.CapW)
	}
	if math.IsNaN(r.DemandW) || math.IsInf(r.DemandW, 0) || r.DemandW < 0 {
		return fmt.Errorf("fleet: report %s: demand %v is not a non-negative wattage", r.Name, r.DemandW)
	}
	if len(r.Breakpoints) != len(r.Utility) {
		return fmt.Errorf("fleet: report %s: %d breakpoints but %d utility samples",
			r.Name, len(r.Breakpoints), len(r.Utility))
	}
	for i, bp := range r.Breakpoints {
		if math.IsNaN(bp) || math.IsInf(bp, 0) || bp <= 0 {
			return fmt.Errorf("fleet: report %s: breakpoint %d (%v) is not a positive wattage", r.Name, i, bp)
		}
		if i > 0 && bp <= r.Breakpoints[i-1] {
			return fmt.Errorf("fleet: report %s: breakpoints not strictly increasing at %d", r.Name, i)
		}
		u := r.Utility[i]
		if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 {
			return fmt.Errorf("fleet: report %s: utility %d (%v) is not a non-negative value", r.Name, i, u)
		}
		if i > 0 && u < r.Utility[i-1] {
			return fmt.Errorf("fleet: report %s: utility decreases at breakpoint %d", r.Name, i)
		}
	}
	return nil
}

// ReportOf puts a NodeView into its wire form. The inverse is
// Report.View; dividing over either yields identical caps.
func ReportOf(v hierarchy.NodeView) Report {
	return Report{
		Version:     ProtocolVersion,
		Name:        v.Name,
		DemandW:     v.DemandW,
		DemandOK:    v.DemandOK,
		Breakpoints: slices.Clone(v.Curve.Breakpoints),
		Utility:     slices.Clone(v.Curve.Utility),
	}
}

// View is the divider's NodeView of the report, over the curve it
// carries.
func (r Report) View() hierarchy.NodeView {
	return hierarchy.NodeView{
		Name:     r.Name,
		DemandW:  r.DemandW,
		DemandOK: r.DemandOK,
		Curve:    hierarchy.Curve{Breakpoints: r.Breakpoints, Utility: r.Utility},
	}
}

// CapRequest asks an agent to apply a new node power cap.
type CapRequest struct {
	Version int     `json:"version"`
	CapW    float64 `json:"cap_w"`
	// Round is the coordinator's rebalance round, for log correlation.
	Round int `json:"round"`
}

// CapResponse acknowledges an applied cap.
type CapResponse struct {
	Name string  `json:"name"`
	CapW float64 `json:"cap_w"`
}

// Heartbeat joins the fleet or renews a membership lease.
type Heartbeat struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Addr is the agent's own base URL ("http://host:port") the
	// coordinator calls back for reports and cap pushes.
	Addr string `json:"addr"`
}

// HeartbeatResponse grants a lease.
type HeartbeatResponse struct {
	// LeaseMillis is how long the membership stays valid without
	// another heartbeat.
	LeaseMillis int64 `json:"lease_ms"`
	// AssignedW is the node's current cap on the coordinator's books
	// (0 until the first rebalance reaches it).
	AssignedW float64 `json:"assigned_w"`
}

// MemberStatus is one member's row in the coordinator Status document.
type MemberStatus struct {
	Name      string  `json:"name"`
	Addr      string  `json:"addr"`
	AssignedW float64 `json:"assigned_w"`
	HasReport bool    `json:"has_report"`
	// LeaseSeconds is the remaining lease time; non-positive means the
	// member will be evicted at the next round.
	LeaseSeconds float64 `json:"lease_seconds"`
}

// Status is the coordinator's diagnostic document (GET PathMembers).
type Status struct {
	Version        int            `json:"version"`
	Round          int            `json:"round"`
	BudgetW        float64        `json:"budget_w"`
	Policy         string         `json:"policy"`
	Recovered      bool           `json:"recovered"`
	AssignedTotalW float64        `json:"assigned_total_w"`
	Evictions      int            `json:"evictions"`
	Members        []MemberStatus `json:"members"`
}
