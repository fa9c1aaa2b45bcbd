// Package explore is the design-space exploration engine behind
// catnap explore: it searches a discrete Catnap configuration space
// (subnet count, link width, buffer depth, idle-detect window,
// congestion metric, gating threshold) for the power/latency Pareto
// front. Two layers make campaigns cheap to repeat, kill, and scale:
//
//   - a content-addressed result cache (internal to the campaign
//     directory): every evaluated point is persisted under the hash of
//     its canonical spec, so re-runs and overlapping sweeps cost a map
//     lookup instead of a simulation. It is also the resume mechanism:
//     a killed campaign rerun with the same options and cache directory
//     replays its committed rounds as cache hits;
//   - adaptive sampling: an incrementally maintained Pareto front
//     (O(log n) dominance checks) steers refinement toward the
//     neighborhood of the front instead of a dumb grid, with a grid mode
//     retained as the measurable baseline.
//
// The engine never simulates anything itself: evaluation is injected as
// an Evaluator and fans out through the internal/runner worker pool,
// inheriting its panic isolation, per-point timeouts, and deterministic
// result ordering. Determinism is load-bearing end to end: identical
// (space, eval params, seed, batch size) reproduce the identical point
// sequence, and the frontier insertion order is fixed, so the final
// front is bit-identical at any worker count, with any cache state, and
// across kill-and-rerun cycles.
package explore

import (
	"fmt"
	"math"
	"sort"
)

// Space is the discrete search space: one value list per configuration
// axis. A point of the space is one choice per axis, addressed either by
// per-axis indices or by a single flat index in mixed-radix order (last
// axis fastest). Axis value lists must be non-empty; duplicates are
// rejected so the flat-index ↔ spec mapping stays bijective.
type Space struct {
	// Subnets are the candidate subnet counts.
	Subnets []int `json:"subnets"`
	// Widths are the candidate per-subnet link widths in bits.
	Widths []int `json:"widths"`
	// VCDepths are the candidate per-VC buffer depths in flits.
	VCDepths []int `json:"vc_depths"`
	// TIdles are the candidate idle-detect windows in cycles
	// (Config.TIdleDetect).
	TIdles []int `json:"t_idles"`
	// Metrics are the candidate local congestion metrics by paper name
	// ("BFM", "BFA", "IR", "IQOcc", "Delay").
	Metrics []string `json:"metrics"`
	// Thresholds are the candidate congestion-metric set-thresholds in
	// the metric's native unit; 0 selects the metric's tuned default.
	Thresholds []float64 `json:"thresholds"`
}

// DefaultSpace is the space catnap explore searches when no axis
// flags are given: every paper-adjacent value of each knob. Its ~1.3k
// points keep the default campaign tractable; axis flags scale it up.
func DefaultSpace() Space {
	return Space{
		Subnets:    []int{1, 2, 4, 8},
		Widths:     []int{64, 128, 256, 512},
		VCDepths:   []int{2, 4, 8},
		TIdles:     []int{2, 4, 8},
		Metrics:    []string{"BFM", "Delay", "IQOcc"},
		Thresholds: []float64{0, 0.5, 2},
	}
}

// axes returns the per-axis cardinalities in canonical axis order.
func (sp Space) axes() []int {
	return []int{len(sp.Subnets), len(sp.Widths), len(sp.VCDepths), len(sp.TIdles), len(sp.Metrics), len(sp.Thresholds)}
}

// NumAxes is the number of configuration axes of a Space.
const NumAxes = 6

// Validate checks that every axis is non-empty and duplicate-free,
// naming the offending axis in the error.
func (sp Space) Validate() error {
	check := func(name string, n int, dup bool) error {
		if n == 0 {
			return fmt.Errorf("explore: Space.%s is empty, want at least one value", name)
		}
		if dup {
			return fmt.Errorf("explore: Space.%s has duplicate values", name)
		}
		return nil
	}
	if err := check("Subnets", len(sp.Subnets), dupInts(sp.Subnets)); err != nil {
		return err
	}
	if err := check("Widths", len(sp.Widths), dupInts(sp.Widths)); err != nil {
		return err
	}
	if err := check("VCDepths", len(sp.VCDepths), dupInts(sp.VCDepths)); err != nil {
		return err
	}
	if err := check("TIdles", len(sp.TIdles), dupInts(sp.TIdles)); err != nil {
		return err
	}
	if err := check("Metrics", len(sp.Metrics), dupStrings(sp.Metrics)); err != nil {
		return err
	}
	if err := check("Thresholds", len(sp.Thresholds), dupFloats(sp.Thresholds)); err != nil {
		return err
	}
	for i, s := range sp.Subnets {
		if s < 1 {
			return fmt.Errorf("explore: Space.Subnets[%d] = %d, want >= 1", i, s)
		}
	}
	for i, w := range sp.Widths {
		if w < 1 {
			return fmt.Errorf("explore: Space.Widths[%d] = %d, want >= 1 bit", i, w)
		}
	}
	for i, d := range sp.VCDepths {
		if d < 1 {
			return fmt.Errorf("explore: Space.VCDepths[%d] = %d, want >= 1 flit", i, d)
		}
	}
	for i, ti := range sp.TIdles {
		if ti < 1 {
			return fmt.Errorf("explore: Space.TIdles[%d] = %d, want >= 1 cycle", i, ti)
		}
	}
	for i, th := range sp.Thresholds {
		if !(th >= 0 && th <= math.MaxFloat64) {
			return fmt.Errorf("explore: Space.Thresholds[%d] = %g, want a finite value >= 0 (0 = metric default)", i, th)
		}
	}
	return nil
}

// Size is the total number of points in the space.
func (sp Space) Size() int64 {
	n := int64(1)
	for _, a := range sp.axes() {
		n *= int64(a)
	}
	return n
}

// coords decomposes a flat index into per-axis indices (last axis
// fastest). idx must be in [0, Size).
func (sp Space) coords(idx int64) [NumAxes]int {
	var c [NumAxes]int
	axes := sp.axes()
	for a := NumAxes - 1; a >= 0; a-- {
		n := int64(axes[a])
		c[a] = int(idx % n)
		idx /= n
	}
	return c
}

// flat recomposes per-axis indices into the flat index.
func (sp Space) flat(c [NumAxes]int) int64 {
	axes := sp.axes()
	idx := int64(0)
	for a := 0; a < NumAxes; a++ {
		idx = idx*int64(axes[a]) + int64(c[a])
	}
	return idx
}

// SpecAt materializes the point at flat index idx with the campaign's
// evaluation parameters.
func (sp Space) SpecAt(idx int64, eval EvalParams) Spec {
	c := sp.coords(idx)
	return Spec{
		Subnets:   sp.Subnets[c[0]],
		WidthBits: sp.Widths[c[1]],
		VCDepth:   sp.VCDepths[c[2]],
		TIdle:     sp.TIdles[c[3]],
		Metric:    sp.Metrics[c[4]],
		Threshold: sp.Thresholds[c[5]],
		Load:      eval.Load,
		Warmup:    eval.Warmup,
		Measure:   eval.Measure,
		Seed:      eval.Seed,
	}
}

// neighbors appends to dst the flat indices one step away from idx along
// each axis (both directions, clamped to the axis bounds), in a fixed
// axis-major order. It returns the extended slice; dst may be nil.
func (sp Space) neighbors(idx int64, dst []int64) []int64 {
	c := sp.coords(idx)
	axes := sp.axes()
	for a := 0; a < NumAxes; a++ {
		for _, d := range [2]int{-1, 1} {
			n := c[a] + d
			if n < 0 || n >= axes[a] {
				continue
			}
			cc := c
			cc[a] = n
			dst = append(dst, sp.flat(cc))
		}
	}
	return dst
}

func dupInts(v []int) bool {
	s := append([]int(nil), v...)
	sort.Ints(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return true
		}
	}
	return false
}

func dupFloats(v []float64) bool {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return true
		}
	}
	return false
}

func dupStrings(v []string) bool {
	s := append([]string(nil), v...)
	sort.Strings(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return true
		}
	}
	return false
}
