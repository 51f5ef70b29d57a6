package fleet

import (
	"encoding/json"
	"fmt"
	"sort"

	"acsel/internal/checkpoint"
	"acsel/internal/wire"
)

// RecordAssignment is the journal record type for one round's
// assignment checkpoint.
const RecordAssignment byte = 1

// checkpointVersion guards the checkpoint payload schema.
const checkpointVersion = 1

// MemberCheckpoint is one member's persisted state.
type MemberCheckpoint struct {
	Name      string  `json:"name"`
	Addr      string  `json:"addr"`
	AssignedW float64 `json:"assigned_w"`
}

// AssignmentCheckpoint is what a coordinator needs to resume after a
// crash: the round counter and each member's address and last pushed
// cap. Reports are deliberately absent — they are re-pulled on the
// first round after restart, and leases restart fresh (every restored
// member gets one grace TTL to heartbeat again before eviction).
type AssignmentCheckpoint struct {
	Version int                `json:"version"`
	Round   int                `json:"round"`
	BudgetW float64            `json:"budget_w"`
	Policy  string             `json:"policy"`
	Members []MemberCheckpoint `json:"members"`
}

// EncodeAssignment frames a checkpoint as a journal record. Members
// are sorted by name so identical states encode identically.
func EncodeAssignment(cp AssignmentCheckpoint) (checkpoint.Record, error) {
	cp.Version = checkpointVersion
	sort.Slice(cp.Members, func(i, j int) bool { return cp.Members[i].Name < cp.Members[j].Name })
	data, err := json.Marshal(cp)
	if err != nil {
		return checkpoint.Record{}, fmt.Errorf("fleet: encode assignment checkpoint: %w", err)
	}
	return checkpoint.Record{Type: RecordAssignment, Data: data}, nil
}

// DecodeAssignment parses an assignment record strictly: an unknown
// field or trailing data is an error.
func DecodeAssignment(rec checkpoint.Record) (AssignmentCheckpoint, error) {
	var cp AssignmentCheckpoint
	if rec.Type != RecordAssignment {
		return cp, fmt.Errorf("fleet: record type %d is not an assignment", rec.Type)
	}
	if err := wire.Unmarshal(rec.Data, &cp); err != nil {
		return cp, fmt.Errorf("fleet: decode assignment checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return cp, fmt.Errorf("fleet: assignment checkpoint version %d (want %d)", cp.Version, checkpointVersion)
	}
	for i, m := range cp.Members {
		if m.Name == "" {
			return cp, fmt.Errorf("fleet: assignment checkpoint member %d has no name", i)
		}
	}
	return cp, nil
}

// LastAssignment scans decoded journal records for the newest valid
// assignment (later records win; invalid ones are skipped, matching
// the journal's tolerance of torn tails).
func LastAssignment(recs []checkpoint.Record) (AssignmentCheckpoint, bool) {
	var out AssignmentCheckpoint
	found := false
	for _, rec := range recs {
		if rec.Type != RecordAssignment {
			continue
		}
		if cp, err := DecodeAssignment(rec); err == nil {
			out, found = cp, true
		}
	}
	return out, found
}
