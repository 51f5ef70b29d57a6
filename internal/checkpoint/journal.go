// Package checkpoint is the crash-safety substrate of the long-running
// runtime service: an append-only record journal with length-prefixed,
// CRC32C-checksummed framing, a versioned header, atomic
// snapshot+compaction (temp file, fsync, rename), and a tolerant
// reader that treats a torn or corrupt tail record as the end of the
// journal rather than an error — exactly what a kill -9 mid-append
// leaves behind.
//
// The package frames opaque records; what goes inside them (runtime
// snapshots, step records) is the caller's schema. Record payloads
// carry a one-byte type tag so readers can dispatch without decoding.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Journal file layout:
//
//	header:  "ACSJ" magic (4 bytes) | format version u16 LE | 2 reserved zero bytes
//	record:  payload length u32 LE | CRC32C(payload) u32 LE | payload
//	payload: type byte | data
//
// The CRC covers the payload only; a corrupted length field is caught
// by the bounds check (a plausible-but-wrong length lands mid-stream
// and fails the CRC instead).

// Version is the journal format version written into new headers.
// Readers reject other versions outright: the header is the journal's
// head, not its tail, so there is no valid prefix to salvage.
const Version = 1

const (
	headerLen = 8
	frameLen  = 8 // length + CRC prefix of each record
)

// MaxRecordLen bounds a single record's payload. A corrupt length
// prefix must not cause a multi-gigabyte allocation; any in-range
// corruption is still caught by the CRC.
const MaxRecordLen = 1 << 26 // 64 MiB

var magic = [4]byte{'A', 'C', 'S', 'J'}

// castagnoli is the CRC32C polynomial table (the checksum used by
// ext4, Btrfs, and every journal that cares about torn writes).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadHeader reports a journal whose header is missing, truncated,
// or of an unknown version. Unlike tail corruption this is fatal: the
// file is not a journal we can read any prefix of.
var ErrBadHeader = errors.New("checkpoint: bad or unsupported journal header")

// Record is one framed journal entry. Type dispatches the payload
// schema; Data is the caller's encoding.
type Record struct {
	Type byte
	Data []byte
}

// Info reports what a tolerant read found.
type Info struct {
	// Records is how many intact records were decoded.
	Records int
	// ValidBytes is the byte offset of the end of the last intact
	// record (i.e. the length a torn journal should be truncated to).
	ValidBytes int64
	// Truncated is true when the file ended in a torn or corrupt
	// record that the reader dropped.
	Truncated bool
}

// header renders the 8-byte journal header.
func header() []byte {
	h := make([]byte, headerLen)
	copy(h, magic[:])
	binary.LittleEndian.PutUint16(h[4:], Version)
	return h
}

// frame renders one record as its on-disk bytes.
func frame(rec Record) []byte {
	payload := make([]byte, 1+len(rec.Data))
	payload[0] = rec.Type
	copy(payload[1:], rec.Data)
	buf := make([]byte, frameLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[frameLen:], payload)
	return buf
}

// Decode parses journal bytes tolerantly: it returns every intact
// record up to the first torn or corrupt one and reports where the
// valid prefix ends. Tail corruption is not an error — it is the
// expected shape of a crash — but a bad header is (ErrBadHeader).
func Decode(data []byte) ([]Record, Info, error) {
	if len(data) < headerLen || [4]byte(data[:4]) != magic {
		return nil, Info{}, ErrBadHeader
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, Info{}, fmt.Errorf("%w: version %d (want %d)", ErrBadHeader, v, Version)
	}
	var recs []Record
	info := Info{ValidBytes: headerLen}
	off := int64(headerLen)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, info, nil // clean end
		}
		if len(rest) < frameLen {
			break // torn frame prefix
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > MaxRecordLen || int64(len(rest)) < frameLen+int64(n) {
			break // corrupt length or torn payload
		}
		payload := rest[frameLen : frameLen+int64(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit rot or an overwritten tail
		}
		recs = append(recs, Record{Type: payload[0], Data: append([]byte(nil), payload[1:]...)})
		off += frameLen + int64(n)
		info.Records++
		info.ValidBytes = off
	}
	info.Truncated = true
	mTruncated.Inc()
	return recs, info, nil
}

// ReadFile reads a journal from disk tolerantly (see Decode).
func ReadFile(path string) ([]Record, Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	return Decode(data)
}

// Writer appends records to a journal file. It is not safe for
// concurrent use; the runtime service owns one writer.
type Writer struct {
	path string
	f    *os.File
}

// Create creates (or truncates) a journal at path and writes the
// header.
func Create(path string) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(header()); err != nil {
		f.Close() //lint:ignore errcheck already failing
		return nil, err
	}
	return &Writer{path: path, f: f}, nil
}

// OpenAppend opens an existing journal for appending, first reading
// its intact records and truncating any torn tail so new appends land
// on a valid prefix. A missing file is created fresh. The intact
// records and what the read found are returned so recovery and
// appending share one pass.
func OpenAppend(path string) (*Writer, []Record, Info, error) {
	recs, info, err := ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		w, cerr := Create(path)
		return w, nil, Info{}, cerr
	}
	if err != nil {
		return nil, nil, Info{}, err
	}
	if info.Truncated {
		if err := os.Truncate(path, info.ValidBytes); err != nil {
			return nil, nil, Info{}, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, Info{}, err
	}
	return &Writer{path: path, f: f}, recs, info, nil
}

// Append frames and writes one record. The frame is written with a
// single Write call so a crash tears at most the final record —
// which Decode then drops.
func (w *Writer) Append(rec Record) error {
	buf := frame(rec)
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	mAppended.Inc()
	mBytes.Add(float64(len(buf)))
	return nil
}

// Sync flushes appended records to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Close syncs and closes the journal file.
func (w *Writer) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close() //lint:ignore errcheck already failing
		return err
	}
	return w.f.Close()
}

// Compact replaces the writer's journal with exactly recs — the
// snapshot+compaction step — and moves the writer onto the new file, so
// later appends extend the compacted journal. The records go to a
// synced temp file in the same directory that is renamed over the
// journal, so a crash at any point leaves either the old journal or the
// new one, never a hybrid. On error the old journal is left in place
// and the writer keeps appending to it.
func (w *Writer) Compact(recs ...Record) error {
	tmp, err := os.CreateTemp(filepath.Dir(w.path), filepath.Base(w.path)+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()           //lint:ignore errcheck already failing
		os.Remove(tmp.Name()) //lint:ignore errcheck best-effort cleanup
	}
	if _, err := tmp.Write(header()); err != nil {
		cleanup()
		return err
	}
	var bytes float64
	for _, rec := range recs {
		buf := frame(rec)
		if _, err := tmp.Write(buf); err != nil {
			cleanup()
			return err
		}
		bytes += float64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		cleanup()
		return err
	}
	mSnapshots.Inc()
	mAppended.Add(float64(len(recs)))
	mBytes.Add(bytes)
	w.f.Close() //lint:ignore errcheck the replaced journal's contents are gone from its path
	w.f = tmp
	return nil
}
