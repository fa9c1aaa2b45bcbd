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
	"math"
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

// NetworkConfig is the network half of Config: geometry and topology,
// subnet provisioning, router microarchitecture, power-gating timing and
// the AppTraffic class map; see noc.Config for each field. Config embeds
// it, so its fields read and assign as Config's own (cfg.Subnets = 4).
type NetworkConfig = noc.Config

// DetectorConfig is the congestion-detection part of Config: the local
// metric (Metric), its threshold (MetricThreshold, the metric's default
// when not positive) and whether the regional OR network runs (LocalOnly
// turns it off, for the BFM-local / IQOcc-local variants of Figure 11);
// see congestion.Config. Config embeds it like NetworkConfig, and the
// simulator hands it to the detector unchanged.
type DetectorConfig = congestion.Config

// Config is the complete experiment configuration: the network, and the
// supply voltage, policies and seed the facade adds. Zero values for the
// microarchitectural fields are filled from the paper's parameters by
// ApplyDefaults; start from Design or BaseConfig rather than a bare
// literal.
type Config struct {
	// Name labels the configuration in reports ("4NT-128b-PG").
	Name string

	NetworkConfig

	// VoltageV is the router supply voltage; 0 selects the minimum
	// voltage at which the router width reaches 2 GHz (Table 2).
	VoltageV float64

	// Policies.
	Selector SelectorKind
	Gating   GatingKind
	// DetectorConfig configures congestion detection for Catnap
	// policies.
	DetectorConfig

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
		NetworkConfig: NetworkConfig{
			Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4,
			VCs: 4, VCDepth: 4, InjQueueFlits: 16,
			RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
			TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
		},
		DetectorConfig: DetectorConfig{Metric: congestion.BFM},
		Seed:           1,
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

// Validate checks a configuration after ApplyDefaults, as New does before
// it builds anything: the network (NetworkConfig.Validate), a finite and
// positive supply voltage, and known selector, gating and metric kinds.
func (c *Config) Validate() error {
	if err := c.NetworkConfig.Validate(); err != nil {
		return err
	}
	if !(c.VoltageV > 0) || math.IsInf(c.VoltageV, 1) {
		return fmt.Errorf("catnap: supply voltage must be finite and positive, got %v V", c.VoltageV)
	}
	if c.needsDetector() && !congestion.ValidKind(c.Metric) {
		return fmt.Errorf("catnap: unknown congestion metric %d", c.Metric)
	}
	if c.Selector < SelectorRR || c.Selector > SelectorCatnap {
		return fmt.Errorf("catnap: unknown selector kind %d", c.Selector)
	}
	if c.Gating < GatingOff || c.Gating > GatingCatnap {
		return fmt.Errorf("catnap: unknown gating kind %d", c.Gating)
	}
	return nil
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
	// mk builds a design from BaseConfig; shape, when given, adjusts the
	// network before ApplyDefaults resolves the rest.
	mk := func(name string, subnets, width int, sel SelectorKind, gate GatingKind, shape func(*NetworkConfig)) {
		registerDesign(name, func() Config {
			c := BaseConfig()
			c.Name = name
			c.Subnets = subnets
			c.LinkWidthBits = width
			c.Selector = sel
			c.Gating = gate
			if shape != nil {
				shape(&c.NetworkConfig)
			}
			c.ApplyDefaults()
			return c
		})
	}
	// The six 256-core configurations of Figure 8.
	mk("1NT-512b", 1, 512, SelectorRR, GatingOff, nil)
	mk("1NT-128b", 1, 128, SelectorRR, GatingOff, nil)
	mk("4NT-128b", 4, 128, SelectorRR, GatingOff, nil)
	mk("1NT-512b-PG", 1, 512, SelectorRR, GatingBaseline, nil)
	mk("1NT-128b-PG", 1, 128, SelectorRR, GatingBaseline, nil)
	mk("4NT-128b-PG", 4, 128, SelectorCatnap, GatingCatnap, nil)
	// The Multi-NoC round-robin gating baseline of Figure 11 ("RR").
	mk("4NT-128b-PG-RR", 4, 128, SelectorRR, GatingBaseline, nil)
	// The bandwidth-equivalent alternatives of Figure 6.
	mk("2NT-256b", 2, 256, SelectorRR, GatingOff, nil)
	mk("8NT-64b", 8, 64, SelectorRR, GatingOff, nil)
	// The 64-core study of Figure 14 (4×4 mesh, 8 GB/s per core → 256-bit
	// aggregate width).
	cores64 := func(n *NetworkConfig) { n.Rows, n.Cols, n.RegionDim = 4, 4, 2 }
	mk("64c-1NT-256b-PG", 1, 256, SelectorRR, GatingBaseline, cores64)
	mk("64c-2NT-128b-PG", 2, 128, SelectorCatnap, GatingCatnap, cores64)
	// Torus variants (beyond the paper: §8 future work on other
	// topologies).
	torus := func(n *NetworkConfig) { n.Torus = true }
	mk("4NT-128b-PG-torus", 4, 128, SelectorCatnap, GatingCatnap, torus)
	mk("1NT-512b-torus", 1, 512, SelectorRR, GatingOff, torus)
	// Flattened-butterfly variants (§2.2's high-radix topology; §8
	// conjectures Multi-NoC power gating helps it too).
	fbfly := func(n *NetworkConfig) { n.FBfly = true }
	mk("4NT-128b-PG-fbfly", 4, 128, SelectorCatnap, GatingCatnap, fbfly)
	mk("1NT-512b-fbfly", 1, 512, SelectorRR, GatingOff, fbfly)
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
