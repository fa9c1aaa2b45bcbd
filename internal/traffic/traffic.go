// Package traffic provides the synthetic workloads of the paper's
// evaluation: uniform random, transpose, and bit-complement destination
// patterns driven by an open-loop Bernoulli injection process, plus the
// piecewise (bursty) offered-load schedule of Figure 12.
//
// Synthetic packets are 512 bits (§4.1), so they serialize to one flit on
// the 512-bit Single-NoC and four flits on a 128-bit subnet.
package traffic

import (
	"fmt"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
)

// SyntheticPacketBits is the synthetic packet size used throughout the
// paper's synthetic experiments.
const SyntheticPacketBits = 512

// Pattern maps a source node to a destination node.
type Pattern interface {
	// Dest returns the destination for a packet from src in a mesh of
	// rows×cols nodes; it must never return src for patterns where the
	// paper's convention discards self-traffic (uniform random).
	Dest(rng *sim.RNG, src, rows, cols int) int
	// Name returns the pattern's conventional name.
	Name() string
}

// UniformRandom sends each packet to a destination chosen uniformly from
// all other nodes.
type UniformRandom struct{}

// Dest implements Pattern.
func (UniformRandom) Dest(rng *sim.RNG, src, rows, cols int) int {
	n := rows * cols
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform-random" }

// Transpose sends node (x, y) to node (y, x) — the adversarial pattern
// that concentrates load along the diagonal under X-Y routing and
// saturates the network at far lower injection rates than uniform random.
// Diagonal nodes (x == y) fall back to uniform random so every node
// offers load.
type Transpose struct{}

// Dest implements Pattern.
func (Transpose) Dest(rng *sim.RNG, src, rows, cols int) int {
	x, y := src%cols, src/cols
	if x == y && x < rows && y < cols {
		return UniformRandom{}.Dest(rng, src, rows, cols)
	}
	if y >= cols || x >= rows {
		// Non-square mesh: wrap coordinates into range.
		return UniformRandom{}.Dest(rng, src, rows, cols)
	}
	return x*cols + y
}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// BitComplement sends node i to node (N−1−i): every packet crosses the
// mesh centre, stressing the bisection.
type BitComplement struct{}

// Dest implements Pattern.
func (BitComplement) Dest(rng *sim.RNG, src, rows, cols int) int {
	return rows*cols - 1 - src
}

// Name implements Pattern.
func (BitComplement) Name() string { return "bit-complement" }

// PatternNames lists the canonical pattern names PatternByName accepts.
func PatternNames() []string {
	return []string{"uniform-random", "transpose", "bit-complement"}
}

// PatternByName returns the pattern with the given conventional name.
func PatternByName(name string) (Pattern, error) {
	switch name {
	case "uniform-random", "ur", "uniform":
		return UniformRandom{}, nil
	case "transpose":
		return Transpose{}, nil
	case "bit-complement", "bitcomp":
		return BitComplement{}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (valid: %v)", name, PatternNames())
	}
}

// Schedule gives the offered load (packets/node/cycle) at a cycle;
// schedules express the constant loads of the sweep experiments and the
// bursts of Figure 12. NextArrival is the event-driven lookahead the idle
// fast-forward path uses: it must report the exact first cycle at or after
// now with a positive load, without consuming any randomness, so skipping
// straight to it is bit-identical to ticking through the zero-load span.
type Schedule interface {
	// Load returns the offered load at the given cycle.
	Load(cycle int64) float64
	// NextArrival returns the earliest cycle >= now at which Load is
	// positive, and ok=false if the load is zero at every cycle >= now.
	NextArrival(now int64) (at int64, ok bool)
}

// constant is a fixed-load Schedule.
type constant float64

// Constant returns a schedule offering a fixed load.
func Constant(load float64) Schedule { return constant(load) }

// Load implements Schedule.
func (c constant) Load(int64) float64 { return float64(c) }

// NextArrival implements Schedule: every cycle when the load is positive,
// never otherwise.
func (c constant) NextArrival(now int64) (int64, bool) {
	if c <= 0 {
		return 0, false
	}
	return now, true
}

// Phase is one segment of a piecewise-constant schedule.
type Phase struct {
	// Until is the first cycle this phase no longer applies.
	Until int64
	// Load is the offered load during the phase.
	Load float64
}

// piecewise is a phase-stepped Schedule (ascending Until values).
type piecewise struct {
	phases []Phase
}

// Piecewise returns a schedule stepping through phases in order; after the
// last phase's Until, the last phase's load persists.
func Piecewise(phases ...Phase) Schedule { return piecewise{phases: phases} }

// Load implements Schedule.
func (p piecewise) Load(cycle int64) float64 {
	for _, ph := range p.phases {
		if cycle < ph.Until {
			return ph.Load
		}
	}
	if len(p.phases) == 0 {
		return 0
	}
	return p.phases[len(p.phases)-1].Load
}

// NextArrival implements Schedule exactly: inside a zero-load phase the
// next arrival is the phase boundary itself (the previous phase's Until is
// the first cycle of the next), never one cycle off — an error here would
// silently break bit-identity of the fast-forward path.
func (p piecewise) NextArrival(now int64) (int64, bool) {
	for _, ph := range p.phases {
		if now >= ph.Until {
			continue
		}
		if ph.Load > 0 {
			return now, true
		}
		// Zero-load phase: the earliest candidate is the first cycle of
		// the next phase, which is exactly this phase's Until.
		now = ph.Until
	}
	// At or past the last Until: the last phase's load persists forever.
	if len(p.phases) > 0 && p.phases[len(p.phases)-1].Load > 0 {
		return now, true
	}
	return 0, false
}

// Fig12Bursts is the offered-load schedule of Figure 12: a base load of
// 0.01 packets/node/cycle, a burst to 0.30 during cycles [1000, 1500), a
// return to base, a second burst to 0.10 during [2000, 2500), then base
// again.
func Fig12Bursts() Schedule {
	return Piecewise(
		Phase{Until: 1000, Load: 0.01},
		Phase{Until: 1500, Load: 0.30},
		Phase{Until: 2000, Load: 0.01},
		Phase{Until: 2500, Load: 0.10},
		Phase{Until: 1 << 62, Load: 0.01},
	)
}

// Generator drives open-loop synthetic traffic into a network. Call Tick
// once per cycle before Network.Step.
type Generator struct {
	net        *noc.Network
	pattern    Pattern
	schedule   Schedule
	rows, cols int
	// rngs holds one generator per node by value, in one allocation.
	rngs []sim.RNG

	// Offered counts packets generated (offered load realized); the
	// network's own counters give accepted load.
	Offered int64
}

// NewGenerator builds a generator over net. Each node draws from its own
// RNG split from seed, so traffic is independent of node iteration order.
func NewGenerator(net *noc.Network, pattern Pattern, schedule Schedule, seed uint64) *Generator {
	root := sim.NewRNG(seed)
	topo := net.Topo()
	g := &Generator{
		net:      net,
		pattern:  pattern,
		schedule: schedule,
		rows:     topo.Rows(),
		cols:     topo.Cols(),
		rngs:     make([]sim.RNG, topo.Nodes()),
	}
	for i := range g.rngs {
		root.SplitNInto(i, &g.rngs[i])
	}
	return g
}

// NextArrival returns the earliest cycle >= now at which the generator
// can inject (the schedule's load turns positive), and ok=false if it
// never will again. Tick draws no randomness at non-positive loads, so a
// caller may jump simulated time straight to the reported cycle without
// ticking the span in between and remain bit-identical.
func (g *Generator) NextArrival(now int64) (int64, bool) {
	return g.schedule.NextArrival(now)
}

// Tick injects this cycle's new packets: each node flips a Bernoulli coin
// with the schedule's current load, as an integer compare against the
// cycle's threshold (sim.BernoulliThreshold: the same draws and outcomes
// as RNG.Bernoulli).
func (g *Generator) Tick(now int64) {
	load := g.schedule.Load(now)
	if load <= 0 {
		return
	}
	// With load > 0, a threshold that takes no draw always fires (load >= 1).
	thr, draw := sim.BernoulliThreshold(load)
	rngs := g.rngs
	for src := range rngs {
		r := &rngs[src]
		if draw && r.Uint64()>>11 >= thr {
			continue
		}
		dst := g.pattern.Dest(r, src, g.rows, g.cols)
		g.net.NewPacket(src, dst, noc.ClassSynthetic, SyntheticPacketBits)
		g.Offered++
	}
}
