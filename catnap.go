// Package catnap is a from-scratch reproduction of "Catnap: Energy
// Proportional Multiple Network-on-Chip" (Das, Narayanasamy, Satpathy,
// Dreslinski — ISCA 2013): a cycle-level multi-subnet network-on-chip
// simulator with the Catnap subnet-selection and power-gating policies,
// the baselines the paper compares against, an Orion-2-style power model,
// and a closed-loop 256-core system model for application workloads.
//
// The package is a facade over the internal engine. Typical use:
//
//	cfg, _ := catnap.Design("4NT-128b-PG")
//	sim, _ := catnap.New(cfg)
//	res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.05), 5000, 20000)
//	fmt.Println(res)
//
// Every configuration evaluated in the paper is available by name through
// Design; every table and figure runs by name through RunExperiment and
// has a corresponding benchmark in bench_test.go.
package catnap

import (
	"fmt"
	"sort"
	"sync"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/power"
)

// SelectorKind chooses the subnet-selection policy.
type SelectorKind int

// Subnet-selection policies.
const (
	// SelectorRR distributes packets round-robin (the naive baseline, and
	// the trivial choice for Single-NoC).
	SelectorRR SelectorKind = iota
	// SelectorRandom picks a uniformly random ready subnet.
	SelectorRandom
	// SelectorCatnap is the paper's strict-priority, congestion-driven
	// policy (requires a congestion metric).
	SelectorCatnap
)

// GatingKind chooses the power-gating policy.
type GatingKind int

// Power-gating policies.
const (
	// GatingOff keeps every router active (the non-PG baselines).
	GatingOff GatingKind = iota
	// GatingBaseline is Matsutani-style gating: sleep on idle buffers,
	// wake reactively via look-ahead/NI signals.
	GatingBaseline
	// GatingCatnap adds the regional-congestion conditions of Figure 5.
	GatingCatnap
)

// Config is the complete experiment configuration. Zero values for the
// microarchitectural fields are filled from the paper's parameters by
// ApplyDefaults; start from Design or BaseConfig rather than a bare
// literal.
type Config struct {
	// Name labels the configuration in reports ("4NT-128b-PG").
	Name string

	// Mesh geometry.
	Rows, Cols   int
	TilesPerNode int
	RegionDim    int

	// Torus closes both mesh dimensions with wraparound links — the
	// paper's §8 future work ("further study is required ... for other
	// topologies"). Torus mode reserves the VC space for dateline
	// deadlock avoidance, so it cannot be combined with AppTraffic's
	// per-class VC masks.
	Torus bool
	// FBfly builds a flattened butterfly (§2.2's high-radix alternative):
	// direct links to every row and column peer, at most two hops per
	// packet, radix rows+cols−1. Mutually exclusive with Torus.
	FBfly bool

	// Network provisioning.
	Subnets       int
	LinkWidthBits int
	// VoltageV is the router supply voltage; 0 selects the minimum
	// voltage at which the router width reaches 2 GHz (Table 2).
	VoltageV float64

	// Router microarchitecture.
	VCs, VCDepth, InjQueueFlits         int
	RouterDelay, LinkDelay, CreditDelay int

	// Power-gating timing (SPICE-derived).
	TWakeup, WakeupHidden, TIdleDetect, TBreakeven int

	// Policies.
	Selector SelectorKind
	Gating   GatingKind
	// Metric is the local congestion metric for Catnap policies.
	Metric congestion.MetricKind
	// MetricThreshold overrides the paper's default threshold when > 0.
	MetricThreshold float64
	// LocalOnly disables the regional OR network (the BFM-local /
	// IQOcc-local variants of Figure 11).
	LocalOnly bool

	// AppTraffic maps the coherence message classes onto disjoint virtual
	// channels for protocol-level deadlock freedom; leave false for
	// synthetic traffic, which may use every VC.
	AppTraffic bool

	// OrderedForward pins the point-to-point-ordered message class
	// (directory request forwarding) to subnet 0, implementing §2.3's
	// "messages which require point-to-point ordering can be mapped to
	// one specific lower-order subnetwork". Only meaningful with
	// AppTraffic and more than one subnet.
	OrderedForward bool

	// Seed drives all randomness (policies only; traffic generators and
	// system models take their own seeds).
	Seed uint64
}

// BaseConfig returns the paper's 256-core baseline: an 8×8 concentrated
// mesh (4 tiles/node), 4 VCs × 4-flit buffers, 16-flit injection queues,
// two-stage routers, and the SPICE gating constants. Subnets/width and
// policies are left for the caller (or Design) to choose.
func BaseConfig() Config {
	return Config{
		Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
		Metric: congestion.BFM,
		Seed:   1,
	}
}

// ApplyDefaults fills zero-valued microarchitectural fields from
// BaseConfig and resolves the operating voltage from Table 2's model.
func (c *Config) ApplyDefaults() {
	b := BaseConfig()
	if c.Rows == 0 {
		c.Rows = b.Rows
	}
	if c.Cols == 0 {
		c.Cols = b.Cols
	}
	if c.TilesPerNode == 0 {
		c.TilesPerNode = b.TilesPerNode
	}
	if c.RegionDim == 0 {
		c.RegionDim = b.RegionDim
		if c.Rows < c.RegionDim || c.Cols < c.RegionDim {
			c.RegionDim = min(c.Rows, c.Cols)
		}
	}
	if c.Subnets == 0 {
		c.Subnets = 1
	}
	if c.LinkWidthBits == 0 {
		c.LinkWidthBits = 512 / c.Subnets
	}
	if c.VCs == 0 {
		c.VCs = b.VCs
	}
	if c.VCDepth == 0 {
		c.VCDepth = b.VCDepth
	}
	if c.InjQueueFlits == 0 {
		c.InjQueueFlits = b.InjQueueFlits
	}
	if c.RouterDelay == 0 {
		c.RouterDelay = b.RouterDelay
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = b.LinkDelay
	}
	if c.CreditDelay == 0 {
		c.CreditDelay = b.CreditDelay
	}
	if c.TWakeup == 0 {
		c.TWakeup = b.TWakeup
	}
	if c.WakeupHidden == 0 {
		c.WakeupHidden = b.WakeupHidden
	}
	if c.TIdleDetect == 0 {
		c.TIdleDetect = b.TIdleDetect
	}
	if c.TBreakeven == 0 {
		c.TBreakeven = b.TBreakeven
	}
	if c.Seed == 0 {
		c.Seed = b.Seed
	}
	if c.VoltageV == 0 {
		p := power.DefaultParams()
		if v, ok := p.MinVoltageFor(c.LinkWidthBits, 2.0); ok {
			c.VoltageV = v
		} else {
			c.VoltageV = p.Vref
		}
	}
}

// nocConfig lowers the facade configuration to the engine's.
func (c *Config) nocConfig() noc.Config {
	n := noc.Config{
		Rows: c.Rows, Cols: c.Cols, TilesPerNode: c.TilesPerNode, RegionDim: c.RegionDim,
		Torus: c.Torus, FBfly: c.FBfly,
		Subnets: c.Subnets, LinkWidthBits: c.LinkWidthBits,
		VCs: c.VCs, VCDepth: c.VCDepth, InjQueueFlits: c.InjQueueFlits,
		RouterDelay: c.RouterDelay, LinkDelay: c.LinkDelay, CreditDelay: c.CreditDelay,
		TWakeup: c.TWakeup, WakeupHidden: c.WakeupHidden,
		TIdleDetect: c.TIdleDetect, TBreakeven: c.TBreakeven,
	}
	if c.AppTraffic {
		n.ClassVCMask = AppClassVCMasks()
	}
	return n
}

// AppClassVCMasks returns the virtual-channel mapping that gives each
// dependent coherence message class a disjoint VC set (§2.3): requests on
// VC0, forwards on VC1 (the point-to-point-ordered class), responses on
// VC2–3, acks/writebacks on VC3.
func AppClassVCMasks() [noc.NumClasses]uint32 {
	var m [noc.NumClasses]uint32
	m[noc.ClassRequest] = 1 << 0
	m[noc.ClassForward] = 1 << 1
	m[noc.ClassResponse] = 1<<2 | 1<<3
	m[noc.ClassAck] = 1 << 3
	return m
}

// needsDetector reports whether the configuration requires congestion
// detection machinery.
func (c *Config) needsDetector() bool {
	return c.Selector == SelectorCatnap || c.Gating == GatingCatnap
}

// designs is the registry of named paper configurations. Each entry
// builds its config on first use and returns that same value afterwards:
// sweep builders look a design up once per point, and the Table 2
// voltage solve in ApplyDefaults (a 5 mV scan, about 9 µs) would
// otherwise run for every one. Config holds no reference types, so every
// caller gets an independent copy.
var designs = map[string]func() Config{}

func registerDesign(name string, f func() Config) {
	designs[name] = sync.OnceValue(f)
}

func init() {
	mk := func(name string, subnets, width int, sel SelectorKind, gate GatingKind) func() Config {
		return func() Config {
			c := BaseConfig()
			c.Name = name
			c.Subnets = subnets
			c.LinkWidthBits = width
			c.Selector = sel
			c.Gating = gate
			c.ApplyDefaults()
			return c
		}
	}
	// The six 256-core configurations of Figure 8.
	registerDesign("1NT-512b", mk("1NT-512b", 1, 512, SelectorRR, GatingOff))
	registerDesign("1NT-128b", mk("1NT-128b", 1, 128, SelectorRR, GatingOff))
	registerDesign("4NT-128b", mk("4NT-128b", 4, 128, SelectorRR, GatingOff))
	registerDesign("1NT-512b-PG", mk("1NT-512b-PG", 1, 512, SelectorRR, GatingBaseline))
	registerDesign("1NT-128b-PG", mk("1NT-128b-PG", 1, 128, SelectorRR, GatingBaseline))
	registerDesign("4NT-128b-PG", mk("4NT-128b-PG", 4, 128, SelectorCatnap, GatingCatnap))
	// The Multi-NoC round-robin gating baseline of Figure 11 ("RR").
	registerDesign("4NT-128b-PG-RR", mk("4NT-128b-PG-RR", 4, 128, SelectorRR, GatingBaseline))
	// The bandwidth-equivalent alternatives of Figure 6.
	registerDesign("2NT-256b", mk("2NT-256b", 2, 256, SelectorRR, GatingOff))
	registerDesign("8NT-64b", mk("8NT-64b", 8, 64, SelectorRR, GatingOff))
	// The 64-core study of Figure 14 (4×4 mesh, 8 GB/s per core → 256-bit
	// aggregate width).
	mk64 := func(name string, subnets, width int, sel SelectorKind, gate GatingKind) func() Config {
		return func() Config {
			c := BaseConfig()
			c.Name = name
			c.Rows, c.Cols = 4, 4
			c.RegionDim = 2
			c.Subnets = subnets
			c.LinkWidthBits = width
			c.Selector = sel
			c.Gating = gate
			c.ApplyDefaults()
			return c
		}
	}
	registerDesign("64c-1NT-256b-PG", mk64("64c-1NT-256b-PG", 1, 256, SelectorRR, GatingBaseline))
	registerDesign("64c-2NT-128b-PG", mk64("64c-2NT-128b-PG", 2, 128, SelectorCatnap, GatingCatnap))
	// Torus variants (beyond the paper: §8 future work on other
	// topologies).
	registerDesign("4NT-128b-PG-torus", func() Config {
		c := mk("4NT-128b-PG-torus", 4, 128, SelectorCatnap, GatingCatnap)()
		c.Torus = true
		return c
	})
	registerDesign("1NT-512b-torus", func() Config {
		c := mk("1NT-512b-torus", 1, 512, SelectorRR, GatingOff)()
		c.Torus = true
		return c
	})
	// Flattened-butterfly variants (§2.2's high-radix topology; §8
	// conjectures Multi-NoC power gating helps it too).
	registerDesign("4NT-128b-PG-fbfly", func() Config {
		c := mk("4NT-128b-PG-fbfly", 4, 128, SelectorCatnap, GatingCatnap)()
		c.FBfly = true
		return c
	})
	registerDesign("1NT-512b-fbfly", func() Config {
		c := mk("1NT-512b-fbfly", 1, 512, SelectorRR, GatingOff)()
		c.FBfly = true
		return c
	})
}

// Design returns the named paper configuration; see Designs for the list.
func Design(name string) (Config, error) {
	f, ok := designs[name]
	if !ok {
		return Config{}, fmt.Errorf("catnap: unknown design %q (available: %v)", name, Designs())
	}
	return f(), nil
}

// Designs lists the registered configuration names, sorted.
func Designs() []string {
	out := make([]string, 0, len(designs))
	for k := range designs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
