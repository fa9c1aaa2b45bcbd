package explore

import (
	"bytes"
	"testing"

	"github.com/catnap-noc/catnap/internal/sim"
)

// bruteFront computes the Pareto set by pairwise comparison, resolving
// ties first-wins in insertion order — the reference for Front.
func bruteFront(pts []Point) map[int64]bool {
	kept := make([]Point, 0, len(pts))
	for _, p := range pts {
		dominated := false
		for _, q := range kept {
			if q.PowerW <= p.PowerW && q.Latency <= p.Latency {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		next := kept[:0]
		for _, q := range kept {
			if !(p.PowerW <= q.PowerW && p.Latency <= q.Latency) {
				next = append(next, q)
			}
		}
		kept = append(next, p)
	}
	out := make(map[int64]bool, len(kept))
	for _, p := range kept {
		out[p.Index] = true
	}
	return out
}

func TestFrontMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			// A small value grid provokes plenty of exact ties.
			pts[i] = Point{
				Index:   int64(i),
				PowerW:  float64(1 + rng.Intn(8)),
				Latency: float64(1 + rng.Intn(8)),
			}
		}
		var f Front
		for _, p := range pts {
			f.Insert(p)
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		want := bruteFront(pts)
		if f.Len() != len(want) {
			t.Fatalf("trial %d: front size %d, brute force %d", trial, f.Len(), len(want))
		}
		for _, p := range f.Points() {
			if !want[p.Index] {
				t.Fatalf("trial %d: front member %d not in brute-force set", trial, p.Index)
			}
		}
	}
}

func TestFrontTieFirstWins(t *testing.T) {
	var f Front
	if !f.Insert(Point{Index: 1, PowerW: 2, Latency: 3}) {
		t.Fatal("first insert rejected")
	}
	if f.Insert(Point{Index: 2, PowerW: 2, Latency: 3}) {
		t.Fatal("exact duplicate objectives must lose to the incumbent")
	}
	if f.Points()[0].Index != 1 {
		t.Fatalf("incumbent replaced: got index %d", f.Points()[0].Index)
	}
}

func TestFrontDominated(t *testing.T) {
	var f Front
	f.Insert(Point{Index: 0, PowerW: 1, Latency: 10})
	f.Insert(Point{Index: 1, PowerW: 5, Latency: 5})
	f.Insert(Point{Index: 2, PowerW: 9, Latency: 1})
	cases := []struct {
		p, l float64
		want bool
	}{
		{0.5, 20, false}, // cheaper than everything
		{1, 10, true},    // exact tie
		{2, 12, true},    // dominated by (1,10)
		{2, 9, false},    // cheaper latency than (1,10) at higher power than nothing better
		{9, 1, true},
		{10, 0.5, false},
		{6, 4, false},
		{6, 6, true}, // dominated by (5,5)
	}
	for _, c := range cases {
		if got := f.Dominated(c.p, c.l); got != c.want {
			t.Errorf("Dominated(%g, %g) = %t, want %t", c.p, c.l, got, c.want)
		}
	}
}

func TestFrontInsertEvictsDominatedRun(t *testing.T) {
	var f Front
	f.Insert(Point{Index: 0, PowerW: 1, Latency: 10})
	f.Insert(Point{Index: 1, PowerW: 2, Latency: 8})
	f.Insert(Point{Index: 2, PowerW: 3, Latency: 6})
	f.Insert(Point{Index: 3, PowerW: 4, Latency: 4})
	// Dominates members 1 and 2, not 0 or 3.
	if !f.Insert(Point{Index: 9, PowerW: 1.5, Latency: 5}) {
		t.Fatal("non-dominated insert rejected")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := []int64{}
	for _, p := range f.Points() {
		got = append(got, p.Index)
	}
	want := []int64{0, 9, 3}
	if len(got) != len(want) {
		t.Fatalf("front members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("front members %v, want %v", got, want)
		}
	}
}

func TestFrontWriteToDeterministic(t *testing.T) {
	sp := Space{
		Subnets: []int{1, 2}, Widths: []int{128}, VCDepths: []int{4},
		TIdles: []int{4}, Metrics: []string{"BFM"}, Thresholds: []float64{0},
	}
	eval := EvalParams{Load: 0.1, Warmup: 100, Measure: 400, Seed: 1}
	var f Front
	f.Insert(Point{Index: 0, PowerW: 1, Latency: 10})
	f.Insert(Point{Index: 1, PowerW: 2, Latency: 5})
	var a, b bytes.Buffer
	if err := f.WriteTo(&a, sp, eval); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteTo(&b, sp, eval); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteTo is not deterministic")
	}
}
