package explore

import (
	"encoding/json"
	"io"
	"sort"
)

// Point is one member of the Pareto front: the design-space point (by
// flat index into the campaign's Space) with its measured objectives.
type Point struct {
	// Index is the flat Space index of the configuration.
	Index int64 `json:"index"`
	// PowerW and Latency are the minimized objectives.
	PowerW  float64 `json:"power_w"`
	Latency float64 `json:"latency"`
	// Accepted and CSCPercent carry the rest of the sample for reports.
	Accepted   float64 `json:"accepted"`
	CSCPercent float64 `json:"csc_percent"`
}

// Front incrementally maintains the Pareto-optimal set under
// minimization of (PowerW, Latency). The invariant: points are sorted by
// strictly increasing PowerW and strictly decreasing Latency, so
// dominance of a candidate is decided by one binary search — O(log n)
// per Insert, plus amortized O(1) removals (each point is removed at
// most once over a front's lifetime).
//
// Ties are resolved first-wins: a candidate equal to a member in both
// objectives is dominated. With a deterministic insertion order this
// makes the front's exact membership reproducible, which the
// kill-and-rerun bit-identity guarantee relies on.
type Front struct {
	pts []Point
}

// Len is the number of points currently on the front.
func (f *Front) Len() int { return len(f.pts) }

// Points returns the front sorted by increasing power. The slice is the
// front's own storage; callers must not modify it.
func (f *Front) Points() []Point { return f.pts }

// Dominated reports whether a candidate with the given objectives is
// (weakly) dominated by a current member: some member is no worse in
// both objectives.
func (f *Front) Dominated(powerW, latency float64) bool {
	// i = first member with PowerW >= powerW.
	i := sort.Search(len(f.pts), func(k int) bool { return f.pts[k].PowerW >= powerW })
	if i > 0 && f.pts[i-1].Latency <= latency {
		return true // strictly cheaper member with no worse latency
	}
	if i < len(f.pts) && f.pts[i].PowerW == powerW && f.pts[i].Latency <= latency {
		return true // equal-power member with no worse latency
	}
	return false
}

// Insert offers p to the front. If p is dominated it returns false and
// the front is unchanged; otherwise p joins, every member p dominates is
// evicted, and Insert returns true.
func (f *Front) Insert(p Point) bool {
	if f.Dominated(p.PowerW, p.Latency) {
		return false
	}
	i := sort.Search(len(f.pts), func(k int) bool { return f.pts[k].PowerW >= p.PowerW })
	// Members from i on have PowerW >= p.PowerW; the prefix of them with
	// Latency >= p.Latency is dominated by p. The front is sorted by
	// decreasing latency, so that prefix is contiguous.
	j := i
	for j < len(f.pts) && f.pts[j].Latency >= p.Latency {
		j++
	}
	if i == j {
		f.pts = append(f.pts, Point{})
		copy(f.pts[i+1:], f.pts[i:])
		f.pts[i] = p
		return true
	}
	f.pts[i] = p
	f.pts = append(f.pts[:i+1], f.pts[j:]...)
	return true
}

// CheckInvariants verifies the sorted/strictly-dominating structure; it
// is O(n) and used by tests.
func (f *Front) CheckInvariants() error {
	for i := 1; i < len(f.pts); i++ {
		if f.pts[i].PowerW <= f.pts[i-1].PowerW || f.pts[i].Latency >= f.pts[i-1].Latency {
			return &invariantError{i: i, a: f.pts[i-1], b: f.pts[i]}
		}
	}
	return nil
}

type invariantError struct {
	i    int
	a, b Point
}

func (e *invariantError) Error() string {
	return "explore: front invariant violated at index " + itoa(e.i) +
		": not strictly increasing power / decreasing latency"
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

// frontFile is the deterministic serialization of a front: one record
// per member in power order, each with its materialized spec. Identical
// campaigns produce byte-identical files — the property the warm-rerun
// and extend checks of the CI smoke job compare.
type frontFile struct {
	Points []frontRecord `json:"front"`
}

type frontRecord struct {
	Spec Spec `json:"spec"`
	Point
}

// WriteTo writes the front's deterministic JSON serialization, with each
// member's spec materialized from sp and eval.
func (f *Front) WriteTo(w io.Writer, sp Space, eval EvalParams) error {
	out := frontFile{Points: make([]frontRecord, len(f.pts))}
	for i, p := range f.pts {
		out.Points[i] = frontRecord{Spec: sp.SpecAt(p.Index, eval), Point: p}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
