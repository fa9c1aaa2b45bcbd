package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
)

// TestPatternsValidDest: property — every pattern returns an in-range
// destination different from the source.
func TestPatternsValidDest(t *testing.T) {
	rng := sim.NewRNG(1)
	patterns := []Pattern{UniformRandom{}, Transpose{}, BitComplement{}}
	f := func(s uint8) bool {
		const rows, cols = 8, 8
		src := int(s) % (rows * cols)
		for _, p := range patterns {
			d := p.Dest(rng, src, rows, cols)
			if d < 0 || d >= rows*cols {
				return false
			}
			if p.Name() != "bit-complement" && d == src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransposeMapping(t *testing.T) {
	rng := sim.NewRNG(2)
	const rows, cols = 8, 8
	// Off-diagonal: (x,y) -> (y,x), an involution.
	for src := 0; src < rows*cols; src++ {
		x, y := src%cols, src/cols
		if x == y {
			continue
		}
		d := Transpose{}.Dest(rng, src, rows, cols)
		if d != x*cols+y {
			t.Fatalf("transpose(%d) = %d, want %d", src, d, x*cols+y)
		}
		if back := (Transpose{}).Dest(rng, d, rows, cols); back != src {
			t.Fatalf("transpose not involutive: %d -> %d -> %d", src, d, back)
		}
	}
}

func TestBitComplementCrossesCenter(t *testing.T) {
	rng := sim.NewRNG(3)
	const rows, cols = 8, 8
	for src := 0; src < rows*cols; src++ {
		d := BitComplement{}.Dest(rng, src, rows, cols)
		if d != rows*cols-1-src {
			t.Fatalf("bitcomp(%d) = %d", src, d)
		}
	}
}

func TestPatternByName(t *testing.T) {
	for _, name := range []string{"uniform-random", "ur", "transpose", "bit-complement"} {
		if _, err := PatternByName(name); err != nil {
			t.Errorf("PatternByName(%q): %v", name, err)
		}
	}
	if _, err := PatternByName("nope"); err == nil {
		t.Error("want error for unknown pattern")
	}
}

func TestPiecewiseSchedule(t *testing.T) {
	s := Piecewise(Phase{Until: 10, Load: 0.1}, Phase{Until: 20, Load: 0.5})
	cases := map[int64]float64{0: 0.1, 9: 0.1, 10: 0.5, 19: 0.5, 25: 0.5, 1000: 0.5}
	for c, want := range cases {
		if got := s.Load(c); got != want {
			t.Errorf("schedule(%d) = %v, want %v", c, got, want)
		}
	}
	if Piecewise().Load(5) != 0 {
		t.Error("empty schedule should offer 0")
	}
}

func TestFig12Schedule(t *testing.T) {
	s := Fig12Bursts()
	cases := map[int64]float64{0: 0.01, 999: 0.01, 1000: 0.30, 1499: 0.30, 1500: 0.01, 2000: 0.10, 2499: 0.10, 2500: 0.01}
	for c, want := range cases {
		if got := s.Load(c); got != want {
			t.Errorf("Fig12Bursts(%d) = %v, want %v", c, got, want)
		}
	}
}

// TestNextArrivalExact: NextArrival must agree exactly with a brute-force
// scan of Load over every schedule shape — in particular the zero-load
// phase boundary case, where an off-by-one would silently break the
// bit-identity of idle fast-forward (the regression this test pins).
func TestNextArrivalExact(t *testing.T) {
	// Every fixture below either turns positive within scanSpan cycles of
	// any probe point or stays zero forever (all finite phase boundaries
	// sit far below scanSpan), so a bounded scan is an exact oracle.
	const scanSpan = 8000
	scan := func(s Schedule, now int64) (int64, bool) {
		for c := now; c < now+scanSpan; c++ {
			if s.Load(c) > 0 {
				return c, true
			}
		}
		return 0, false
	}
	schedules := map[string]Schedule{
		"constant":      Constant(0.2),
		"constant-zero": Constant(0),
		"fig12":         Fig12Bursts(),
		"empty":         Piecewise(),
		"zero-gap":      Piecewise(Phase{Until: 10, Load: 0.1}, Phase{Until: 30, Load: 0}, Phase{Until: 1 << 62, Load: 0.4}),
		"leading-zero":  Piecewise(Phase{Until: 25, Load: 0}, Phase{Until: 1 << 62, Load: 0.3}),
		"zero-tail":     Piecewise(Phase{Until: 10, Load: 0.1}, Phase{Until: 20, Load: 0}),
		"adjacent-zero": Piecewise(Phase{Until: 5, Load: 0}, Phase{Until: 7, Load: 0}, Phase{Until: 9, Load: 0.5}, Phase{Until: 11, Load: 0}),
	}
	const horizon = 4000
	for name, s := range schedules {
		for now := int64(0); now < horizon; now++ {
			wantAt, wantOK := scan(s, now)
			gotAt, gotOK := s.NextArrival(now)
			if gotOK != wantOK || (gotOK && gotAt != wantAt) {
				t.Fatalf("%s: NextArrival(%d) = (%d, %v), want (%d, %v)", name, now, gotAt, gotOK, wantAt, wantOK)
			}
		}
	}
}

// TestNextArrivalZeroRateBoundary pins the exact phase-boundary contract:
// from inside a zero-load phase, the reported arrival is the phase's Until
// itself (the first cycle of the next phase), not Until±1.
func TestNextArrivalZeroRateBoundary(t *testing.T) {
	s := Piecewise(Phase{Until: 100, Load: 0}, Phase{Until: 200, Load: 0.25})
	for _, now := range []int64{0, 50, 99} {
		if at, ok := s.NextArrival(now); !ok || at != 100 {
			t.Fatalf("NextArrival(%d) = (%d, %v), want (100, true)", now, at, ok)
		}
	}
	if at, ok := s.NextArrival(100); !ok || at != 100 {
		t.Fatalf("NextArrival(100) = (%d, %v), want (100, true)", at, ok)
	}
}

// TestGeneratorNextArrivalBitIdentity: ticking a generator through a
// zero-load span draws no randomness, so skipping the span and resuming at
// NextArrival yields the identical injection sequence.
func TestGeneratorNextArrivalBitIdentity(t *testing.T) {
	sched := Piecewise(Phase{Until: 50, Load: 0.3}, Phase{Until: 500, Load: 0}, Phase{Until: 1 << 62, Load: 0.3})
	run := func(skip bool) int64 {
		net := newTestNet(t)
		gen := NewGenerator(net, UniformRandom{}, sched, 7)
		for c := int64(0); c < 1000; {
			if skip {
				if at, ok := gen.NextArrival(c); ok && at > c {
					c = at
					continue
				}
			}
			gen.Tick(c)
			c++
		}
		return gen.Offered
	}
	ticked, skipped := run(false), run(true)
	if ticked == 0 {
		t.Fatal("no packets offered")
	}
	if ticked != skipped {
		t.Fatalf("skip changed the injection sequence: %d vs %d packets", ticked, skipped)
	}
}

func newTestNet(t *testing.T) *noc.Network {
	t.Helper()
	cfg := noc.Config{
		Rows: 4, Cols: 4, TilesPerNode: 4, RegionDim: 2,
		Subnets: 2, LinkWidthBits: 256,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestGeneratorRate: the realized offered load must match the schedule.
func TestGeneratorRate(t *testing.T) {
	net := newTestNet(t)
	const load, cycles = 0.2, 20000
	gen := NewGenerator(net, UniformRandom{}, Constant(load), 5)
	for i := int64(0); i < cycles; i++ {
		gen.Tick(i)
		net.Step()
	}
	rate := float64(gen.Offered) / cycles / float64(net.Topo().Nodes())
	if math.Abs(rate-load) > 0.01 {
		t.Errorf("offered rate = %.4f, want %.2f", rate, load)
	}
}

func TestGeneratorZeroLoad(t *testing.T) {
	net := newTestNet(t)
	gen := NewGenerator(net, UniformRandom{}, Constant(0), 5)
	for i := int64(0); i < 100; i++ {
		gen.Tick(i)
	}
	if gen.Offered != 0 {
		t.Errorf("offered %d packets at zero load", gen.Offered)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() int64 {
		net := newTestNet(t)
		gen := NewGenerator(net, Transpose{}, Constant(0.3), 9)
		for i := int64(0); i < 2000; i++ {
			gen.Tick(i)
			net.Step()
		}
		return gen.Offered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic generator: %d vs %d", a, b)
	}
}
