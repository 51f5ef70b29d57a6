// Package fault is a deterministic, seed-keyed fault-injection
// framework for the hardware seams the paper's pipeline crosses: SMU
// power sensors (internal/power), ACPI P-state transitions
// (internal/acpi), performance counters (internal/counters), and
// kernel iterations (internal/profiler, internal/rts). The paper's
// cap-keeping claim (Model+FL under the limit in 88% of cases) is
// evaluated on clean hardware; production systems see sensor dropout,
// stuck estimators, failed DVFS transitions, and hung iterations —
// this package makes those conditions reproducible.
//
// A fault plan is (scenario name, seed): every fault decision is
// resolved by hashing the plan identity together with the event's own
// identity (site, key, iteration), exactly like the repo's
// kernels.IterationRNG noise streams. Two runs of the same plan
// therefore inject the identical fault sequence regardless of
// goroutine scheduling or call order — chaos runs replay bit-for-bit.
// A nil *Injector injects nothing, so callers need no enabled checks.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"acsel/internal/seeded"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// SensorDropout kills a power measurement outright: the SMU
	// returns no reading (power.ErrSensorDropout).
	SensorDropout Kind = iota
	// SensorStuck latches the sensor at a stale absolute value
	// (Magnitude watts of package power) regardless of true draw —
	// the insidious under-reporting failure that causes silent cap
	// violations.
	SensorStuck
	// SensorSpike multiplies the reading by Magnitude, producing an
	// implausible sample a sanity gate should quarantine.
	SensorSpike
	// SensorDrift scales the reading by (1 - Magnitude): a slow
	// calibration drift toward under-reporting. Injectors grow the
	// drift with the event iteration (see Rule.Magnitude).
	SensorDrift
	// PStateFail aborts a P-state transition before any state
	// changes (acpi.ErrTransitionFailed); retries may succeed.
	PStateFail
	// PStateDelay lets the transition succeed but stretches its
	// latency by Magnitude× (accounted in transition overhead).
	PStateDelay
	// CounterCorrupt scrambles a performance-counter readout:
	// individual counters are zeroed or scaled by Magnitude.
	CounterCorrupt
	// KernelHang stretches one kernel iteration's runtime by
	// Magnitude× — a stall the watchdog must notice, not a crash.
	KernelHang
	// NetDrop kills a fleet RPC outright: the request never reaches the
	// peer and the caller sees a transport error (retries may succeed).
	NetDrop
	// NetDelay lets the RPC succeed but books Magnitude× the nominal
	// round-trip latency against it — a slow link, not a dead one.
	NetDelay
	// NetCorrupt scrambles the RPC response body so decoding (or
	// validation) fails — a proxy truncation or torn read.
	NetCorrupt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SensorDropout:
		return "sensor-dropout"
	case SensorStuck:
		return "sensor-stuck"
	case SensorSpike:
		return "sensor-spike"
	case SensorDrift:
		return "sensor-drift"
	case PStateFail:
		return "pstate-fail"
	case PStateDelay:
		return "pstate-delay"
	case CounterCorrupt:
		return "counter-corrupt"
	case KernelHang:
		return "kernel-hang"
	case NetDrop:
		return "net-drop"
	case NetDelay:
		return "net-delay"
	case NetCorrupt:
		return "net-corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Site identifies one hardware seam where faults are injected.
type Site int

const (
	// SiteSMU is the power-sensor path (power.SMU and any scalar
	// power reading a limiter consults).
	SiteSMU Site = iota
	// SitePState is the ACPI P-state transition path.
	SitePState
	// SiteCounter is the performance-counter readout path.
	SiteCounter
	// SiteKernel is kernel-iteration execution.
	SiteKernel
	// SiteNet is the fleet coordinator↔agent RPC path (report pulls,
	// cap pushes, heartbeats).
	SiteNet
)

// String names the site.
func (s Site) String() string {
	switch s {
	case SiteSMU:
		return "smu"
	case SitePState:
		return "pstate"
	case SiteCounter:
		return "counter"
	case SiteKernel:
		return "kernel"
	case SiteNet:
		return "net"
	}
	return fmt.Sprintf("Site(%d)", int(s))
}

// Fault is one resolved fault event at a seam.
type Fault struct {
	Kind Kind
	// Magnitude parameterizes the fault; its meaning is per Kind
	// (stuck watts, spike/hang/delay factor, drift fraction,
	// corruption scale). Zero for kinds that need none.
	Magnitude float64
}

// Rule is one line of a scenario: at Site, each event independently
// suffers Kind with probability Prob and parameter Magnitude.
type Rule struct {
	Site Site
	Kind Kind
	Prob float64
	// Magnitude is the fault parameter. For SensorDrift it is the
	// per-iteration drift rate: the resolved fault's magnitude is
	// Magnitude×iter, capped at MaxDriftFrac, so the sensor decays
	// rather than jumps.
	Magnitude float64
}

// MaxDriftFrac bounds cumulative sensor drift: a real estimator that
// lost more than this fraction would fail plausibility checks anyway.
const MaxDriftFrac = 0.35

// Injector resolves fault events for one plan. The zero of every
// decision is the plan identity, so injectors are stateless and safe
// for concurrent use; a nil *Injector resolves no faults.
type Injector struct {
	scenario Scenario
	seed     int64
}

// NewInjector builds the injector for a plan.
func NewInjector(s Scenario, seed int64) *Injector {
	return &Injector{scenario: s, seed: seed}
}

// Scenario returns the injector's scenario.
func (in *Injector) Scenario() Scenario {
	if in == nil {
		return Scenario{Name: "clean"}
	}
	return in.scenario
}

// Seed returns the plan seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// String renders the plan as "scenario:seed", the ParsePlan format.
func (in *Injector) String() string {
	if in == nil {
		return "clean:0"
	}
	return fmt.Sprintf("%s:%d", in.scenario.Name, in.seed)
}

// At resolves the faults active for one event, identified by the seam,
// a caller-chosen key (e.g. "kernelID|configID"), and an iteration or
// attempt ordinal. The decision depends only on (plan, site, key,
// iter), never on call order. Multiple rules can fire on one event;
// faults are returned in rule order.
func (in *Injector) At(site Site, key string, iter int) []Fault {
	if in == nil {
		return nil
	}
	var out []Fault
	for ri, r := range in.scenario.Rules {
		if r.Site != site || r.Prob <= 0 {
			continue
		}
		rng := eventRNG(in.scenario.Name, in.seed, site, key, iter, ri)
		if rng.Float64() >= r.Prob {
			continue
		}
		f := Fault{Kind: r.Kind, Magnitude: r.Magnitude}
		if r.Kind == SensorDrift {
			f.Magnitude = r.Magnitude * float64(iter)
			if f.Magnitude > MaxDriftFrac {
				f.Magnitude = MaxDriftFrac
			}
		}
		mInjected.With(in.scenario.Name, site.String()).Inc()
		out = append(out, f)
	}
	return out
}

// Active reports whether any rule targets the site at all (cheap
// pre-check for callers that would otherwise build keys needlessly).
func (in *Injector) Active(site Site) bool {
	if in == nil {
		return false
	}
	for _, r := range in.scenario.Rules {
		if r.Site == site && r.Prob > 0 {
			return true
		}
	}
	return false
}

// eventRNG derives the deterministic decision stream for one
// (plan, event, rule) tuple: a seeded.New generator keyed by the
// FNV-64a hash of "scenario|seed|site|key|iter|rule". Injector.At
// draws one float from it, so seeding is nearly all of its cost.
func eventRNG(scenario string, seed int64, site Site, key string, iter, rule int) *rand.Rand {
	b := make([]byte, 0, 96)
	b = append(b, scenario...)
	b = append(b, '|')
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(site), 10)
	b = append(b, '|')
	b = append(b, key...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(iter), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(rule), 10)
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never returns an error
	return seeded.New(int64(h.Sum64()))
}

// EventKey builds the canonical event key used across seams:
// "id|subID". Both halves are caller-defined (kernel ID and config
// ID, scenario case labels, ...); the helper just fixes the format so
// producers and replayers agree.
func EventKey(id string, sub int) string {
	return id + "|" + strconv.Itoa(sub)
}

// ParsePlan parses a "scenario[:seed]" plan string (seed defaults to
// 1) into an injector, resolving the scenario by name.
func ParsePlan(plan string) (*Injector, error) {
	if plan == "" {
		return nil, fmt.Errorf("fault: empty plan (want scenario[:seed]; a clean run passes no plan at all)")
	}
	name := plan
	seed := int64(1)
	if i := strings.LastIndexByte(plan, ':'); i >= 0 {
		name = plan[:i]
		v, err := strconv.ParseInt(plan[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad plan seed %q: %w", plan[i+1:], err)
		}
		seed = v
	}
	if name == "" {
		return nil, fmt.Errorf("fault: plan %q names no scenario", plan)
	}
	sc, ok := ScenarioByName(name)
	if !ok {
		var names []string
		for _, s := range Scenarios() {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("fault: unknown scenario %q (have %v)", name, names)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return NewInjector(sc, seed), nil
}
