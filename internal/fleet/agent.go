package fleet

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"sync"
	"time"

	"acsel/internal/hierarchy"
	"acsel/internal/kernels"
	"acsel/internal/rts"
	"acsel/internal/wire"
)

// AgentOptions configures a node's fleet membership.
type AgentOptions struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	// Empty disables the heartbeat loop: the agent still serves reports
	// and accepts cap pushes, it just never joins a fleet on its own.
	Coordinator string
	// HeartbeatEvery is the lease-renewal period (default 1s). Keep it
	// well under the coordinator's lease TTL.
	HeartbeatEvery time.Duration
	// OrphanAfter is how long the agent tolerates no coordinator
	// contact (no successful heartbeat, no accepted cap push) before it
	// orphans itself: it drops its own cap to hierarchy.MinNodeCapW,
	// where the runtime's min-power degradation ladder keeps the node
	// safe while it keeps retrying. Default 5× HeartbeatEvery.
	OrphanAfter time.Duration
	// Client issues heartbeats (a zero Client if nil).
	Client *Client
	// Logf receives membership events (log.Printf if nil).
	Logf func(format string, args ...any)
	// Now is the clock (time.Now if nil); tests pin it.
	Now func() time.Time
}

// Agent is one node's side of the fleet protocol: it serves the node's
// Report, applies coordinator cap pushes, renews its membership lease,
// and falls back to the floor cap when the coordinator disappears.
type Agent struct {
	name string
	node *hierarchy.Node
	opts AgentOptions

	mu          sync.Mutex
	lastContact time.Time
	orphaned    bool
}

// NewAgent wraps a runtime and its application kernels as a fleet
// member.
func NewAgent(name string, rt *rts.Runtime, app []kernels.Kernel, opts AgentOptions) (*Agent, error) {
	if name == "" {
		return nil, fmt.Errorf("fleet: agent needs a node name")
	}
	if rt == nil {
		return nil, fmt.Errorf("fleet: agent %s needs a runtime", name)
	}
	if len(app) == 0 {
		return nil, fmt.Errorf("fleet: agent %s needs application kernels", name)
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	if opts.OrphanAfter <= 0 {
		opts.OrphanAfter = 5 * opts.HeartbeatEvery
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
	a := &Agent{
		name: name,
		node: &hierarchy.Node{Name: name, Runtime: rt, App: app},
		opts: opts,
	}
	a.lastContact = opts.Now()
	return a, nil
}

// Name returns the agent's node name.
func (a *Agent) Name() string { return a.name }

// Report puts the node into its wire form: the demand summary and
// predicted utility curve the dividers consume, plus the current cap
// and learning diagnostics. The curve comes from the node's cache,
// rebuilt only after a kernel adapts.
func (a *Agent) Report() Report {
	rt := a.node.Runtime
	r := ReportOf(hierarchy.View(a.node))
	r.CapW = rt.Cap()
	_, r.AdaptedKernels = a.node.UtilityCurve()
	r.Steps = rt.NumSteps()
	return r
}

// Orphaned reports whether the agent has lost the coordinator and
// dropped to its floor cap.
func (a *Agent) Orphaned() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.orphaned
}

// codeCapRefused is the error code of a cap the runtime refuses (422).
const codeCapRefused = "cap_refused"

// Register installs the agent's HTTP handlers (GET PathReport, POST
// PathCap) on a mux — in acsel-serve, the same mux that serves
// /metrics. The mux answers any other method with 405 and an Allow
// header.
func (a *Agent) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET "+PathReport, a.handleReport)
	mux.HandleFunc("POST "+PathCap, a.handleCap)
}

// badRequest answers 400 with the shared error envelope.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf(format, args...))
}

func (a *Agent) handleReport(w http.ResponseWriter, _ *http.Request) {
	mReportsServed.Inc()
	wire.WriteJSON(w, http.StatusOK, a.Report())
}

func (a *Agent) handleCap(w http.ResponseWriter, req *http.Request) {
	var cr CapRequest
	if err := wire.Decode(req.Body, &cr); err != nil {
		mCapsRejected.Inc()
		badRequest(w, "bad cap request: %v", err)
		return
	}
	if cr.Version != ProtocolVersion {
		mCapsRejected.Inc()
		badRequest(w, "cap request version %d (want %d)", cr.Version, ProtocolVersion)
		return
	}
	if math.IsNaN(cr.CapW) || math.IsInf(cr.CapW, 0) || cr.CapW <= 0 {
		mCapsRejected.Inc()
		badRequest(w, "cap %v is not a positive wattage", cr.CapW)
		return
	}
	if err := a.node.Runtime.SetCap(cr.CapW); err != nil {
		mCapsRejected.Inc()
		wire.WriteError(w, http.StatusUnprocessableEntity, codeCapRefused, "runtime refused cap: "+err.Error())
		return
	}
	mCapsApplied.Inc()
	a.touchContact()
	a.opts.Logf("fleet agent %s: cap %.1f W applied (round %d)", a.name, cr.CapW, cr.Round)
	wire.WriteJSON(w, http.StatusOK, CapResponse{Name: a.name, CapW: cr.CapW})
}

// touchContact records a successful coordinator exchange and clears
// any orphan state.
func (a *Agent) touchContact() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastContact = a.opts.Now()
	if a.orphaned {
		a.opts.Logf("fleet agent %s: coordinator is back", a.name)
		a.orphaned = false
	}
}

// Run drives the heartbeat loop until the context ends. selfURL is the
// base URL the coordinator should call back ("http://host:port" of the
// mux the agent registered on). Returns nil on context cancellation.
func (a *Agent) Run(ctx context.Context, selfURL string) error {
	if a.opts.Coordinator == "" {
		return fmt.Errorf("fleet: agent %s has no coordinator URL", a.name)
	}
	t := time.NewTicker(a.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		a.heartbeat(ctx, selfURL)
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
	}
}

func (a *Agent) heartbeat(ctx context.Context, selfURL string) {
	hb := Heartbeat{Version: ProtocolVersion, Name: a.name, Addr: selfURL}
	_, err := a.opts.Client.SendHeartbeat(ctx, a.opts.Coordinator, hb)
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		mHeartbeatFailures.Inc()
		a.maybeOrphan(err)
		return
	}
	a.touchContact()
}

// maybeOrphan drops the node to its floor cap once the coordinator has
// been silent past OrphanAfter. The runtime's reselect under the floor
// walks the min-power degradation ladder, so the node lands on the
// cheapest configuration rather than an uncapped one — the safe side
// of a partitioned fleet.
func (a *Agent) maybeOrphan(cause error) {
	a.mu.Lock()
	silent := a.opts.Now().Sub(a.lastContact)
	already := a.orphaned
	if !already && silent >= a.opts.OrphanAfter {
		a.orphaned = true
	}
	nowOrphan := a.orphaned
	a.mu.Unlock()
	if already || !nowOrphan {
		return
	}
	mOrphaned.Inc()
	if err := a.node.Runtime.SetCap(hierarchy.MinNodeCapW); err != nil {
		a.opts.Logf("fleet agent %s: orphaned after %v (%v) but floor cap failed: %v",
			a.name, silent.Round(time.Millisecond), cause, err)
		return
	}
	a.opts.Logf("fleet agent %s: orphaned after %v without coordinator contact (%v); dropped to floor %.1f W",
		a.name, silent.Round(time.Millisecond), cause, hierarchy.MinNodeCapW)
}
