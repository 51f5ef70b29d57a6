package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the spans kept in memory for the trace file. Spans
// past the bound still count in the per-name aggregates; only their
// individual records are dropped (and the drop is reported).
const maxKeptSpans = 1 << 18

// span is one timed call the benchmark made into a layer of the
// program. Spans of one unit of work (an evaluation, a request, a fleet
// epoch) share a Trace identifier; Parent names the enclosing span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Calls is how many identical calls the span covers (probe batches
	// time many calls at once); 1 otherwise.
	Calls int `json:"calls"`
}

// spanAgg accumulates every span of one name, kept or dropped.
type spanAgg struct {
	spans int64
	calls int64
	ns    int64
}

// tracer records spans in memory and writes them out once, at exit. A
// nil *tracer is the untraced mode: every method is a cheap no-op, so
// workload code calls it unconditionally.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	kept    []span
	dropped int64
	agg     map[string]*spanAgg
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), agg: map[string]*spanAgg{}}
}

// spanHandle is an open span; end closes and records it.
type spanHandle struct {
	t      *tracer
	id     uint64
	parent uint64
	trace  uint64
	name   string
	start  int64
}

// begin opens a span. trace 0 starts a new trace keyed by the span's
// own identifier.
func (t *tracer) begin(name string, parent, trace uint64) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	id := t.nextID.Add(1)
	if trace == 0 {
		trace = id
	}
	return spanHandle{t: t, id: id, parent: parent, trace: trace, name: name,
		start: time.Since(t.epoch).Nanoseconds()}
}

// end records the span.
func (h spanHandle) end() {
	if h.t == nil {
		return
	}
	h.t.record(span{ID: h.id, Parent: h.parent, Trace: h.trace, Name: h.name,
		Start: h.start, End: time.Since(h.t.epoch).Nanoseconds(), Calls: 1})
}

// recordDuration adds a span, covering calls identical calls, whose
// interval was measured elsewhere (a server handler, a probe batch that
// must not count the tracer's own allocations).
func (t *tracer) recordDuration(name string, parent, trace uint64, start time.Time, d time.Duration, calls int) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.record(span{ID: t.nextID.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: s, End: s + d.Nanoseconds(), Calls: calls})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	a := t.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.Name] = a
	}
	a.spans++
	a.calls += int64(s.Calls)
	a.ns += s.End - s.Start
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// meanCallNs is the mean duration of one call under spans named name,
// in nanoseconds; 0 when no such span was recorded.
func (t *tracer) meanCallNs(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil || a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls)
}

// write stores the kept spans as JSON lines, sorted by start time, with
// a trailing summary line per span name.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sort.Slice(t.kept, func(i, j int) bool { return t.kept[i].Start < t.kept[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the write error is the one reported
			return fmt.Errorf("trace: %w", err)
		}
	}
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := t.agg[n]
		summary := struct {
			Summary string `json:"summary"`
			Spans   int64  `json:"spans"`
			Calls   int64  `json:"calls"`
			TotalNs int64  `json:"total_ns"`
		}{n, a.spans, a.calls, a.ns}
		if err := enc.Encode(summary); err != nil {
			_ = f.Close() // the write error is the one reported
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := enc.Encode(struct {
		Dropped int64 `json:"dropped_spans"`
	}{t.dropped}); err != nil {
		_ = f.Close() // the write error is the one reported
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one reported
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
