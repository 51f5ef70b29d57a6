// Package pareto derives measured power–performance Pareto frontiers,
// the core geometric object of the paper's offline modeling process
// (§III-B, Fig 2). A point is on the frontier when no other point
// offers greater-or-equal performance at lower-or-equal power with at
// least one strict improvement. Frontiers are kept sorted by ascending
// power, which is the configuration ordering compared across kernels
// via Kendall tau. The package is offline only: the online stage's
// predicted frontier is core.Selector's Frontier, and selection under a
// cap is its Select.
package pareto

import (
	"math"
	"sort"
)

// Point is one configuration's measured or predicted operating point.
// ID identifies the configuration (index into a configuration space).
type Point struct {
	ID    int
	Power float64 // watts (lower is better)
	Perf  float64 // throughput, higher is better
}

// Dominates reports whether a dominates b: a is no worse in both
// dimensions and strictly better in at least one.
func Dominates(a, b Point) bool {
	if a.Power > b.Power || a.Perf < b.Perf {
		return false
	}
	return a.Power < b.Power || a.Perf > b.Perf
}

// Frontier is a Pareto frontier sorted by ascending power (and, being
// non-dominated, ascending performance).
type Frontier struct {
	pts []Point
}

// New extracts the Pareto frontier from arbitrary points. Duplicate
// operating points keep the first-seen ID. NaN coordinates are
// rejected implicitly: points with NaN never dominate and are never
// kept (they are dropped).
func New(points []Point) *Frontier {
	var clean []Point
	for _, p := range points {
		if math.IsNaN(p.Power) || math.IsNaN(p.Perf) {
			continue
		}
		clean = append(clean, p)
	}
	// Sort by power ascending, performance descending for stable sweep.
	// Ordered comparisons only: a comparator must stay exact and
	// transitive, so epsilon equality has no place here.
	sort.Slice(clean, func(i, j int) bool {
		if clean[i].Power < clean[j].Power {
			return true
		}
		if clean[j].Power < clean[i].Power {
			return false
		}
		if clean[i].Perf > clean[j].Perf {
			return true
		}
		if clean[j].Perf > clean[i].Perf {
			return false
		}
		return clean[i].ID < clean[j].ID
	})
	var front []Point
	bestPerf := math.Inf(-1)
	for _, p := range clean {
		if p.Perf > bestPerf {
			front = append(front, p)
			bestPerf = p.Perf
		}
	}
	return &Frontier{pts: front}
}

// Points returns the frontier points in ascending-power order. The
// returned slice is a copy.
func (f *Frontier) Points() []Point {
	return append([]Point(nil), f.pts...)
}

// Len returns the number of frontier points.
func (f *Frontier) Len() int { return len(f.pts) }

// SharedOrder extracts, for two frontiers, the positions of the
// configurations present on both, in the order they appear along each
// frontier. The two returned rank lists are parallel: entry i of both
// refers to the same configuration ID. This is the input to the Kendall
// rank correlation in the paper's dissimilarity computation.
func SharedOrder(a, b *Frontier) (ranksA, ranksB []int, ids []int) {
	posB := make(map[int]int, len(b.pts))
	for i, p := range b.pts {
		posB[p.ID] = i
	}
	for i, p := range a.pts {
		if j, ok := posB[p.ID]; ok {
			ranksA = append(ranksA, i)
			ranksB = append(ranksB, j)
			ids = append(ids, p.ID)
		}
	}
	return ranksA, ranksB, ids
}
