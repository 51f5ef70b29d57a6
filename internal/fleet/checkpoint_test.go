package fleet

import (
	"bytes"
	"testing"

	"acsel/internal/checkpoint"
)

// TestDecodeAssignmentIsStrict: an assignment record with an unknown
// field (top-level or in a member) or trailing bytes is rejected.
func TestDecodeAssignmentIsStrict(t *testing.T) {
	rec, err := EncodeAssignment(AssignmentCheckpoint{Round: 3, BudgetW: 48, Policy: "water-fill",
		Members: []MemberCheckpoint{{Name: "a", Addr: "http://a", AssignedW: 24}}})
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := DecodeAssignment(rec); err != nil || cp.Round != 3 || len(cp.Members) != 1 {
		t.Fatalf("clean record: %+v, %v", cp, err)
	}
	data := rec.Data
	for name, bad := range map[string][]byte{
		"unknown field":        append(append([]byte(nil), data[:len(data)-1]...), `,"bogus":1}`...),
		"unknown member field": bytes.Replace(data, []byte(`"name":"a"`), []byte(`"name":"a","bogus":1`), 1),
		"trailing data":        append(append([]byte(nil), data...), ` {}`...),
	} {
		if bytes.Equal(bad, data) {
			t.Fatalf("%s: mutation did not change the record", name)
		}
		if _, err := DecodeAssignment(checkpoint.Record{Type: RecordAssignment, Data: bad}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
