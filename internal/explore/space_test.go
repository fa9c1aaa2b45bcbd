package explore

import (
	"math"
	"strings"
	"testing"
)

func testSpace() Space {
	return Space{
		Subnets:    []int{1, 2, 4},
		Widths:     []int{128, 512},
		VCDepths:   []int{2, 4},
		TIdles:     []int{4},
		Metrics:    []string{"BFM", "Delay"},
		Thresholds: []float64{0, 2},
	}
}

func TestSpaceCoordsRoundTrip(t *testing.T) {
	sp := testSpace()
	size := sp.Size()
	if want := int64(3 * 2 * 2 * 1 * 2 * 2); size != want {
		t.Fatalf("Size = %d, want %d", size, want)
	}
	seen := make(map[string]bool, size)
	for idx := int64(0); idx < size; idx++ {
		if got := sp.flat(sp.coords(idx)); got != idx {
			t.Fatalf("flat(coords(%d)) = %d", idx, got)
		}
		spec := sp.SpecAt(idx, EvalParams{Load: 0.1, Warmup: 1, Measure: 2, Seed: 3})
		if seen[spec.Canonical()] {
			t.Fatalf("index %d: duplicate canonical spec %q", idx, spec.Canonical())
		}
		seen[spec.Canonical()] = true
	}
}

func TestSpaceLastAxisFastest(t *testing.T) {
	sp := testSpace()
	eval := EvalParams{Load: 0.1, Warmup: 1, Measure: 2, Seed: 3}
	s0, s1 := sp.SpecAt(0, eval), sp.SpecAt(1, eval)
	if s0.Threshold == s1.Threshold {
		t.Fatalf("adjacent flat indices should differ in the last axis: %+v vs %+v", s0, s1)
	}
	if s0.Subnets != s1.Subnets || s0.Metric != s1.Metric {
		t.Fatalf("adjacent flat indices changed a non-final axis: %+v vs %+v", s0, s1)
	}
}

func TestSpaceNeighbors(t *testing.T) {
	sp := testSpace()
	// Corner point 0 has only +1 neighbors on multi-valued axes.
	nb := sp.neighbors(0, nil)
	for _, n := range nb {
		if n <= 0 || n >= sp.Size() {
			t.Fatalf("neighbor %d out of range", n)
		}
	}
	// 5 multi-valued axes → 5 in-range +1 steps from the origin corner.
	if len(nb) != 5 {
		t.Fatalf("origin corner has %d neighbors, want 5", len(nb))
	}
	// Deterministic order.
	nb2 := sp.neighbors(0, nil)
	for i := range nb {
		if nb[i] != nb2[i] {
			t.Fatal("neighbor order is not deterministic")
		}
	}
	// An interior coordinate gets both directions on its axis.
	mid := sp.flat([NumAxes]int{1, 0, 0, 0, 0, 0})
	nbm := sp.neighbors(mid, nil)
	if len(nbm) != 6 {
		t.Fatalf("interior point has %d neighbors, want 6", len(nbm))
	}
}

func TestSpaceValidateNamesAxis(t *testing.T) {
	cases := []struct {
		mutate func(*Space)
		want   string
	}{
		{func(s *Space) { s.Subnets = nil }, "Space.Subnets"},
		{func(s *Space) { s.Widths = []int{128, 128} }, "Space.Widths"},
		{func(s *Space) { s.VCDepths = []int{0} }, "Space.VCDepths"},
		{func(s *Space) { s.TIdles = []int{-1} }, "Space.TIdles"},
		{func(s *Space) { s.Metrics = nil }, "Space.Metrics"},
		{func(s *Space) { s.Thresholds = []float64{-0.5} }, "Space.Thresholds"},
		{func(s *Space) { s.Thresholds = []float64{math.NaN()} }, "Space.Thresholds"},
		{func(s *Space) { s.Thresholds = []float64{0, math.Inf(1)} }, "Space.Thresholds"},
	}
	for _, c := range cases {
		sp := testSpace()
		c.mutate(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate after mutating %s: %v", c.want, err)
		}
	}
	if err := testSpace().Validate(); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
	if err := DefaultSpace().Validate(); err != nil {
		t.Errorf("default space rejected: %v", err)
	}
}

func TestSpecKeyDistinguishesFields(t *testing.T) {
	base := Spec{Subnets: 4, WidthBits: 128, VCDepth: 4, TIdle: 4, Metric: "BFM", Threshold: 0, Load: 0.1, Warmup: 100, Measure: 400, Seed: 1}
	keys := map[string]string{base.Key(): "base"}
	variants := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"subnets", func(s *Spec) { s.Subnets = 8 }},
		{"width", func(s *Spec) { s.WidthBits = 256 }},
		{"vcdepth", func(s *Spec) { s.VCDepth = 8 }},
		{"tidle", func(s *Spec) { s.TIdle = 2 }},
		{"metric", func(s *Spec) { s.Metric = "Delay" }},
		{"threshold", func(s *Spec) { s.Threshold = 2 }},
		{"load", func(s *Spec) { s.Load = 0.2 }},
		{"warmup", func(s *Spec) { s.Warmup = 200 }},
		{"measure", func(s *Spec) { s.Measure = 800 }},
		{"seed", func(s *Spec) { s.Seed = 2 }},
	}
	for _, v := range variants {
		s := base
		v.mutate(&s)
		k := s.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("variant %s collides with %s", v.name, prev)
		}
		keys[k] = v.name
	}
	if base.Key() != base.Key() {
		t.Error("Key is not stable")
	}
}
