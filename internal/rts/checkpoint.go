// Checkpoint/restore for the adaptive runtime: Snapshot captures every
// piece of learned and health state a kill would otherwise lose — each
// kernel's KernelRecord (samples, cluster, pinned configuration,
// degradation-ladder position, retry/quarantine/dropout counters, the
// divergence EWMA), the running step totals and the last StepWindow
// steps — and Restore rebuilds a runtime whose observable behaviour
// (Steps, Summarize, HealthFor, and every future RunKernel decision)
// is reflect.DeepEqual-identical to one that never stopped. A snapshot
// does not grow with the number of steps executed. Version-1
// snapshots, which carried the full step history instead, still
// restore: the history is folded into the totals and the retained
// window. Predictions, and the minimum-power floor derived from them,
// are deliberately NOT persisted: they are a deterministic function of
// the model and the persisted sample runs, so Restore recomputes them
// and a snapshot can never disagree with the model that consumes it.
package rts

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"acsel/internal/checkpoint"
	"acsel/internal/core"
	"acsel/internal/wire"
)

// SnapshotVersion guards the snapshot schema; Restore accepts it and
// version 1 (full step history), and rejects any other version rather
// than guessing at field meanings.
const SnapshotVersion = 2

// Journal record types for runtimes checkpointed through
// internal/checkpoint: a full state snapshot, and one executed step.
const (
	// RecordSnapshot frames a JSON-encoded Snapshot.
	RecordSnapshot byte = 1
	// RecordStep frames one JSON-encoded Step appended after the
	// snapshot it extends.
	RecordStep byte = 2
)

// KernelCheckpoint is one kernel's persisted adaptation state.
type KernelCheckpoint struct {
	Key string `json:"key"`
	// Adapted records whether classification has happened (iter >= 2
	// on an uninterrupted run); Restore recomputes the predictions from
	// the samples only when true.
	Adapted bool `json:"adapted"`
	KernelRecord

	// MinPowerID is the floor configuration early version-1 snapshots
	// carried. It is declared only so the strict decoder accepts those
	// snapshots; Restore ignores it (the floor is derived from the
	// predictions) and Snapshot never writes it.
	MinPowerID json.RawMessage `json:"min_power_id,omitempty"`
}

// Snapshot is the runtime's complete checkpointable state.
type Snapshot struct {
	Version int     `json:"version"`
	CapW    float64 `json:"cap_w"`
	// Kernels is sorted by key so snapshots of equal state are
	// byte-identical regardless of map iteration order.
	Kernels []KernelCheckpoint `json:"kernels"`
	// Totals aggregates every step executed; Recent holds the last
	// min(Totals.Steps, StepWindow) of them, oldest first.
	Totals StepTotals `json:"totals"`
	Recent []Step     `json:"recent,omitempty"`
	// Steps is a version-1 snapshot's full step history. Restore folds
	// it into Totals and Recent; version 2 never writes it.
	Steps []Step `json:"steps,omitempty"`
}

// Snapshot captures the runtime's current state. It is safe to call
// concurrently with RunKernel; the capture is atomic under the
// runtime's lock.
func (rt *Runtime) Snapshot() *Snapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := &Snapshot{Version: SnapshotVersion, CapW: rt.capW}
	keys := make([]string, 0, len(rt.kernels))
	for key := range rt.kernels {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := rt.kernels[key]
		snap.Kernels = append(snap.Kernels,
			KernelCheckpoint{Key: key, Adapted: st.preds != nil, KernelRecord: st.KernelRecord})
	}
	snap.Totals = rt.steps.totals
	snap.Recent = rt.steps.last(StepWindow)
	return snap
}

// ErrBadSnapshot reports a snapshot Restore cannot accept.
var ErrBadSnapshot = errors.New("rts: invalid snapshot")

// Restore replaces the runtime's state with a snapshot taken from a
// runtime over the same model and options. Per-kernel predictions are
// recomputed from the persisted sample runs with core.Model.PredictAll
// — the same deterministic computation adapt performed originally — and
// every future selection, the min-power floor included, is made among
// them, so the restored runtime's decisions match the uninterrupted
// run's exactly. Restore fully overwrites prior state; call it on a
// fresh runtime.
func (rt *Runtime) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil", ErrBadSnapshot)
	}
	if snap.Version != 1 && snap.Version != SnapshotVersion {
		return fmt.Errorf("%w: version %d (want 1 or %d)", ErrBadSnapshot, snap.Version, SnapshotVersion)
	}
	if err := validCapW(snap.CapW); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	steps, err := snapshotSteps(snap)
	if err != nil {
		return err
	}
	kernels := make(map[string]*kernelState, len(snap.Kernels))
	for _, kc := range snap.Kernels {
		if kc.Key == "" {
			return fmt.Errorf("%w: kernel with empty key", ErrBadSnapshot)
		}
		if _, dup := kernels[kc.Key]; dup {
			return fmt.Errorf("%w: duplicate kernel key %q", ErrBadSnapshot, kc.Key)
		}
		st := &kernelState{KernelRecord: kc.KernelRecord}
		// A corrupt negative count must not make the EWMA look observed.
		st.DivSamples = max(st.DivSamples, 0)
		if kc.Adapted {
			preds, _, err := rt.model.PredictAll(core.SampleRuns{CPU: kc.CPUSample, GPU: kc.GPUSample})
			if err != nil {
				return fmt.Errorf("rts: restoring %q: %w", kc.Key, err)
			}
			st.setPredictions(preds)
		}
		kernels[kc.Key] = st
	}
	rt.mu.Lock()
	rt.capW = snap.CapW
	rt.kernels = kernels
	rt.steps = steps
	rt.gen++
	rt.mu.Unlock()
	mRestores.Inc()
	return nil
}

// snapshotSteps rebuilds the step log a snapshot describes: version 1
// replays its full history through the log, in order, so the totals
// are the sums Summarize used to take over that history; version 2
// carries the totals and the retained window directly.
func snapshotSteps(snap *Snapshot) (stepLog, error) {
	if snap.Version == 1 {
		var l stepLog
		for _, s := range snap.Steps {
			l.record(s)
		}
		return l, nil
	}
	if len(snap.Steps) > 0 {
		return stepLog{}, fmt.Errorf("%w: version %d snapshot with a version-1 step history", ErrBadSnapshot, snap.Version)
	}
	if n := snap.Totals.Steps; n < 0 || len(snap.Recent) != min(n, StepWindow) {
		return stepLog{}, fmt.Errorf("%w: %d retained steps for %d executed (window %d)",
			ErrBadSnapshot, len(snap.Recent), n, StepWindow)
	}
	return restoredLog(snap.Totals, snap.Recent), nil
}

// EncodeSnapshot frames the snapshot as a checkpoint journal record.
func EncodeSnapshot(snap *Snapshot) (checkpoint.Record, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return checkpoint.Record{}, err
	}
	return checkpoint.Record{Type: RecordSnapshot, Data: data}, nil
}

// DecodeSnapshot parses a RecordSnapshot journal record strictly: an
// unknown field or trailing data is an error.
func DecodeSnapshot(rec checkpoint.Record) (*Snapshot, error) {
	if rec.Type != RecordSnapshot {
		return nil, fmt.Errorf("rts: record type %d is not a snapshot", rec.Type)
	}
	var snap Snapshot
	if err := wire.Unmarshal(rec.Data, &snap); err != nil {
		return nil, fmt.Errorf("rts: decoding snapshot: %w", err)
	}
	return &snap, nil
}

// EncodeStep frames one executed step as a checkpoint journal record.
func EncodeStep(s Step) (checkpoint.Record, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return checkpoint.Record{}, err
	}
	return checkpoint.Record{Type: RecordStep, Data: data}, nil
}

// DecodeStep parses a RecordStep journal record strictly (see
// DecodeSnapshot).
func DecodeStep(rec checkpoint.Record) (Step, error) {
	if rec.Type != RecordStep {
		return Step{}, fmt.Errorf("rts: record type %d is not a step", rec.Type)
	}
	var s Step
	if err := wire.Unmarshal(rec.Data, &s); err != nil {
		return Step{}, fmt.Errorf("rts: decoding step: %w", err)
	}
	return s, nil
}
