package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state.journal")
}

func mustAppend(t *testing.T, w *Writer, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: 1, Data: []byte(`{"snapshot":true}`)},
		{Type: 2, Data: []byte(`{"step":0}`)},
		{Type: 2, Data: nil},
		{Type: 7, Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	mustAppend(t, w, want...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated {
		t.Error("clean journal reported truncated")
	}
	if info.Records != len(want) {
		t.Errorf("records = %d, want %d", info.Records, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %v\nwant %v", got, want)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != info.ValidBytes {
		t.Errorf("ValidBytes %d != file size %d", info.ValidBytes, st.Size())
	}
}

func TestEmptyJournal(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info, err := ReadFile(path)
	if err != nil || len(recs) != 0 || info.Truncated {
		t.Fatalf("empty journal: recs=%v info=%+v err=%v", recs, info, err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("ACS"),
		[]byte("NOPE\x01\x00\x00\x00"),
		append([]byte("ACSJ"), 0x63, 0x00, 0, 0), // version 99
	} {
		if _, _, err := Decode(data); !errors.Is(err, ErrBadHeader) {
			t.Errorf("Decode(%q) err = %v, want ErrBadHeader", data, err)
		}
	}
}

func TestMissingFile(t *testing.T) {
	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "nope.journal")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v, want not-exist", err)
	}
}

// writeJournal builds a valid journal file with n records and returns
// its path and bytes.
func writeJournal(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := tempJournal(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustAppend(t, w, Record{Type: byte(i%3 + 1), Data: []byte{byte(i), byte(i >> 8), 0xFE}})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestTornTailTruncates(t *testing.T) {
	_, data := writeJournal(t, 5)
	// Chop bytes off the end: every cut between the end of record 3
	// and the end of record 5 must still yield the first records.
	full, _, err := Decode(data)
	if err != nil || len(full) != 5 {
		t.Fatalf("baseline decode: %d records, err %v", len(full), err)
	}
	// Record-boundary offsets: a cut landing exactly on one is a
	// shorter clean journal, not a torn one.
	boundary := map[int]bool{}
	off := headerLen
	for off < len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8)
		off += frameLen + n
		boundary[off] = true
	}
	for cut := len(data) - 1; cut > headerLen; cut-- {
		recs, info, err := Decode(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: err %v", cut, err)
		}
		if info.Truncated == boundary[cut] {
			t.Errorf("cut %d: truncated=%v, want %v", cut, info.Truncated, !boundary[cut])
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r, full[i]) {
				t.Fatalf("cut %d: record %d diverged", cut, i)
			}
		}
	}
}

func TestCorruptMiddleStopsAtPrefix(t *testing.T) {
	_, data := writeJournal(t, 4)
	full, _, _ := Decode(data)
	// Flip one bit in the third record's payload; reads must stop
	// after the second record.
	off := int(headerLen)
	for i := 0; i < 2; i++ {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8)
		off += frameLen + n
	}
	mut := append([]byte(nil), data...)
	mut[off+frameLen] ^= 0x01
	recs, info, err := Decode(mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !info.Truncated {
		t.Errorf("got %d records (truncated=%v), want 2 truncated", len(recs), info.Truncated)
	}
	if !reflect.DeepEqual(recs, full[:2]) {
		t.Error("prefix records corrupted")
	}
}

func TestCorruptLengthBounded(t *testing.T) {
	_, data := writeJournal(t, 2)
	mut := append([]byte(nil), data...)
	// Smash the first record's length prefix to a huge value: the
	// reader must refuse to allocate and stop at zero records.
	mut[headerLen] = 0xFF
	mut[headerLen+1] = 0xFF
	mut[headerLen+2] = 0xFF
	mut[headerLen+3] = 0x7F
	recs, info, err := Decode(mut)
	if err != nil || len(recs) != 0 || !info.Truncated {
		t.Errorf("oversize length: recs=%d truncated=%v err=%v", len(recs), info.Truncated, err)
	}
}

func TestOpenAppendTruncatesTornTailAndResumes(t *testing.T) {
	path, data := writeJournal(t, 3)
	// Tear the journal mid-record 3.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, info, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || info.Records != 2 || !info.Truncated {
		t.Fatalf("recovered %d records (info %+v), want 2 and a torn tail", len(recs), info)
	}
	mustAppend(t, w, Record{Type: 9, Data: []byte("after crash")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, info, err := ReadFile(path)
	if err != nil || info.Truncated {
		t.Fatalf("post-recovery read: info=%+v err=%v", info, err)
	}
	if len(recs2) != 3 || recs2[2].Type != 9 || string(recs2[2].Data) != "after crash" {
		t.Errorf("post-recovery records: %v", recs2)
	}
}

func TestOpenAppendCreatesMissing(t *testing.T) {
	path := tempJournal(t)
	w, recs, info, err := OpenAppend(path)
	if err != nil || recs != nil || info != (Info{}) {
		t.Fatalf("recs=%v info=%+v err=%v", recs, info, err)
	}
	mustAppend(t, w, Record{Type: 1, Data: []byte("x")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, _, err := ReadFile(path)
	if err != nil || len(recs2) != 1 {
		t.Fatalf("recs=%v err=%v", recs2, err)
	}
}

// TestWriteAtomicCompacts checks that Compact rewrites a journal in
// place as exactly its records, shrinking it and leaving no temp file.
func TestWriteAtomicCompacts(t *testing.T) {
	path, _ := writeJournal(t, 6)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	w, old, info, err := OpenAppend(path)
	if err != nil || len(old) != 6 || info.Truncated {
		t.Fatalf("open: recs=%d info=%+v err=%v", len(old), info, err)
	}
	snap := []Record{{Type: 1, Data: []byte(`{"compacted":true}`)}}
	if err := w.Compact(snap...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info, err := ReadFile(path)
	if err != nil || info.Truncated {
		t.Fatalf("compacted read: info=%+v err=%v", info, err)
	}
	if len(recs) != 1 || string(recs[0].Data) != `{"compacted":true}` {
		t.Errorf("compacted records: %v", recs)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after compaction, want 1", len(entries))
	}
}

func TestAppendAfterCompaction(t *testing.T) {
	path := tempJournal(t)
	w0, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w0, Record{Type: 2, Data: []byte("s0")}, Record{Type: 2, Data: []byte("s1")})
	if err := w0.Compact(Record{Type: 1, Data: []byte("snap")}); err != nil {
		t.Fatal(err)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	w, recs, _, err := OpenAppend(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
	mustAppend(t, w, Record{Type: 2, Data: []byte("step")})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, _, err := ReadFile(path)
	if err != nil || len(recs2) != 2 {
		t.Fatalf("recs=%v err=%v", recs2, err)
	}
}

// TestWriterCompactThenAppend checks that a writer keeps appending to
// the compacted journal: after each Compact the file decodes as the
// compacted records followed by the ones appended since, and no temp
// file is left beside it.
func TestWriterCompactThenAppend(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Type: 2, Data: []byte("old-0")}, Record{Type: 2, Data: []byte("old-1")})
	for round := 0; round < 2; round++ {
		snap := []Record{{Type: 1, Data: []byte{'s', byte('0' + round)}}, {Type: 3, Data: []byte("meta")}}
		if err := w.Compact(snap...); err != nil {
			t.Fatal(err)
		}
		tail := []Record{{Type: 2, Data: []byte{'a', byte('0' + round)}}, {Type: 2, Data: []byte{'b', byte('0' + round)}}}
		mustAppend(t, w, tail...)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		got, info, err := ReadFile(path)
		if err != nil || info.Truncated {
			t.Fatalf("round %d: info=%+v err=%v", round, info, err)
		}
		if want := append(snap, tail...); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: journal decodes as\n%v\nwant\n%v", round, got, want)
		}
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("round %d: directory has %d entries after compaction, want 1", round, len(entries))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
