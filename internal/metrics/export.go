// Prometheus text exposition and the deterministic JSON snapshot.
//
// Both exporters walk the registry under read locks, sort families by
// name and children by label values, and format floats with shortest
// exact precision — two exports of the same registry state are
// byte-identical, which is what makes the JSON snapshot golden-testable
// and CI-assertable.
package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// formatValue renders a sample value in OpenMetrics float syntax.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line per the text exposition format:
// backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sortedFamilies returns the registry's families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns one family's child keys in deterministic
// (label-value) order.
func (f *family) sortedChildren() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// labelPairs renders `name="value"` pairs for one child key, plus any
// extra pairs (the histogram `le` bound), inside braces. Empty when
// there are no pairs at all.
func labelPairs(labels []string, key string, extra ...string) string {
	var parts []string
	if len(labels) > 0 {
		values := strings.Split(key, labelSep)
		for i, l := range labels {
			parts = append(parts, l+`="`+escapeLabel(values[i])+`"`)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, extra[i]+`="`+escapeLabel(extra[i+1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteProm writes the registry in Prometheus/OpenMetrics text
// exposition format (version 0.0.4): HELP and TYPE lines per family,
// cumulative le-buckets plus _sum and _count for histograms.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if _, err := bw.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n"); err != nil {
			return err
		}
		if _, err := bw.WriteString("# TYPE " + f.name + " " + f.kind.String() + "\n"); err != nil {
			return err
		}
		for _, key := range f.sortedChildren() {
			f.mu.RLock()
			m := f.children[key]
			f.mu.RUnlock()
			switch f.kind {
			case KindCounter, KindGauge:
				v := 0.0
				if f.kind == KindCounter {
					v = m.counter.Value()
				} else {
					v = m.gauge.Value()
				}
				if _, err := bw.WriteString(f.name + labelPairs(f.labels, key) + " " + formatValue(v) + "\n"); err != nil {
					return err
				}
			case KindHistogram:
				h := m.histogram
				var cum uint64
				for i, bound := range h.upper {
					cum += h.bucket(i)
					line := f.name + "_bucket" + labelPairs(f.labels, key, "le", formatValue(bound)) +
						" " + strconv.FormatUint(cum, 10) + "\n"
					if _, err := bw.WriteString(line); err != nil {
						return err
					}
				}
				// +Inf and _count come from the same pass as the
				// finite buckets, so the exposition stays monotone
				// under concurrent Observe.
				total := cum + h.bucket(len(h.upper))
				if _, err := bw.WriteString(f.name + "_bucket" + labelPairs(f.labels, key, "le", "+Inf") +
					" " + strconv.FormatUint(total, 10) + "\n"); err != nil {
					return err
				}
				if _, err := bw.WriteString(f.name + "_sum" + labelPairs(f.labels, key) + " " + formatValue(h.Sum()) + "\n"); err != nil {
					return err
				}
				if _, err := bw.WriteString(f.name + "_count" + labelPairs(f.labels, key) + " " + strconv.FormatUint(total, 10) + "\n"); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Snapshot is the JSON form of a registry's complete state.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help"`
	Type    string           `json:"type"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one child (label combination) of a family. Value is
// set for counters and gauges; Count/Sum/Buckets for histograms.
type MetricSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket. LE is the upper
// bound rendered as text so the implicit "+Inf" bucket survives JSON.
type BucketSnapshot struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// Family returns the named family snapshot (ok=false when absent).
func (s Snapshot) Family(name string) (FamilySnapshot, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySnapshot{}, false
}

// TakeSnapshot captures the registry's current state in deterministic
// order.
func (r *Registry) TakeSnapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, key := range f.sortedChildren() {
			f.mu.RLock()
			m := f.children[key]
			f.mu.RUnlock()
			ms := MetricSnapshot{}
			if len(f.labels) > 0 {
				ms.Labels = map[string]string{}
				values := strings.Split(key, labelSep)
				for i, l := range f.labels {
					ms.Labels[l] = values[i]
				}
			}
			switch f.kind {
			case KindCounter:
				v := m.counter.Value()
				ms.Value = &v
			case KindGauge:
				v := m.gauge.Value()
				ms.Value = &v
			case KindHistogram:
				h := m.histogram
				sum := h.Sum()
				var cum uint64
				for i, bound := range h.upper {
					cum += h.bucket(i)
					ms.Buckets = append(ms.Buckets, BucketSnapshot{LE: formatValue(bound), Count: cum})
				}
				count := cum + h.bucket(len(h.upper))
				ms.Buckets = append(ms.Buckets, BucketSnapshot{LE: "+Inf", Count: count})
				ms.Count = &count
				ms.Sum = &sum
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.TakeSnapshot())
}
