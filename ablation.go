package catnap

import (
	"context"

	"github.com/catnap-noc/catnap/internal/traffic"
)

// This file implements the ablation studies DESIGN.md calls out: each
// varies one design choice of the Catnap architecture around the paper's
// operating point and measures the low-load power-gating benefit (CSC,
// power) against the latency cost, on uniform random traffic at a light
// and a moderate load. Each study is the registry experiment
// "ablation-<study>"; ablation_test.go benchmarks them.

// AblationPoint is one (variant, load) measurement.
type AblationPoint struct {
	Study   string
	Variant string
	Offered float64
	Results Results
}

// AblationStudy names a parameter study and enumerates its variants.
type AblationStudy struct {
	Name     string
	Doc      string
	Variants []AblationVariant
}

// AblationVariant labels one configuration mutation.
type AblationVariant struct {
	Label  string
	Mutate func(*Config)
}

// AblationStudies are the design-choice sweeps around the 4NT-128b-PG
// operating point.
var AblationStudies = []AblationStudy{
	{
		Name: "rcs",
		Doc:  "regional vs local-only congestion detection (the 1-bit OR network's value)",
		Variants: []AblationVariant{
			{"regional", func(c *Config) {}},
			{"local-only", func(c *Config) { c.LocalOnly = true }},
		},
	},
	{
		Name: "threshold",
		Doc:  "BFM congestion threshold (flits): spill-early vs pack-tight",
		Variants: []AblationVariant{
			{"thr=3", func(c *Config) { c.MetricThreshold = 3 }},
			{"thr=6", func(c *Config) { c.MetricThreshold = 6 }},
			{"thr=9", func(c *Config) { c.MetricThreshold = 9 }},
			{"thr=12", func(c *Config) { c.MetricThreshold = 12 }},
		},
	},
	{
		Name: "idle-detect",
		Doc:  "buffer-empty cycles before a router may sleep (T-idle-detect)",
		Variants: []AblationVariant{
			{"T=2", func(c *Config) { c.TIdleDetect = 2 }},
			{"T=4", func(c *Config) { c.TIdleDetect = 4 }},
			{"T=8", func(c *Config) { c.TIdleDetect = 8 }},
			{"T=16", func(c *Config) { c.TIdleDetect = 16 }},
		},
	},
	{
		Name: "wakeup",
		Doc:  "router wake-up delay sensitivity (T-wakeup, 3 cycles hidden)",
		Variants: []AblationVariant{
			{"T=5", func(c *Config) { c.TWakeup = 5 }},
			{"T=10", func(c *Config) { c.TWakeup = 10 }},
			{"T=20", func(c *Config) { c.TWakeup = 20 }},
		},
	},
	{
		Name: "region",
		Doc:  "congestion-detection region size (routers per OR network)",
		Variants: []AblationVariant{
			{"2x2", func(c *Config) { c.RegionDim = 2 }},
			{"4x4", func(c *Config) { c.RegionDim = 4 }},
			{"8x8", func(c *Config) { c.RegionDim = 8 }},
		},
	},
	{
		Name: "subnets",
		Doc:  "subnet count at constant aggregate width (power-gating granularity)",
		Variants: []AblationVariant{
			{"2NT-256b", func(c *Config) { c.Subnets = 2; c.LinkWidthBits = 256; c.VoltageV = 0 }},
			{"4NT-128b", func(c *Config) { c.Subnets = 4; c.LinkWidthBits = 128; c.VoltageV = 0 }},
			{"8NT-64b", func(c *Config) { c.Subnets = 8; c.LinkWidthBits = 64; c.VoltageV = 0 }},
		},
	},
}

// AblationLoads are the two operating points each variant is measured at:
// light (deep-sleep regime) and moderate (transition-heavy regime).
var AblationLoads = []float64{0.03, 0.15}

// runAblation executes study and returns one point per (variant, load),
// each variant's loads in AblationLoads order. Every study measures at
// AblationLoads, so o.Loads is ignored.
func runAblation(ctx context.Context, o ExperimentOpts, study AblationStudy) ([]AblationPoint, error) {
	cases := make([]loadCase[AblationPoint], len(study.Variants))
	for i, v := range study.Variants {
		cases[i] = loadCase[AblationPoint]{
			label:   study.Name + "=" + v.Label,
			pattern: traffic.UniformRandom{},
			config: func() (Config, error) {
				cfg, err := Design("4NT-128b-PG")
				if err != nil {
					return Config{}, err
				}
				v.Mutate(&cfg)
				cfg.ApplyDefaults()
				cfg.Name = "4NT-128b-PG[" + study.Name + "=" + v.Label + "]"
				return cfg, nil
			},
			row: func(load float64, res Results) AblationPoint {
				return AblationPoint{Study: study.Name, Variant: v.Label, Offered: load, Results: res}
			},
		}
	}
	o.Loads = AblationLoads
	return loadSweep(ctx, o, cases)
}

// registerAblations registers one "ablation-<study>" experiment per
// AblationStudies entry, in that order.
func registerAblations() {
	for _, study := range AblationStudies {
		registerTable(ExperimentInfo{"ablation-" + study.Name, study.Doc, "study"}, "",
			[]string{"variant", "offered", "power (W)", "CSC (%)", "latency (cyc)", "accepted"},
			func(ctx context.Context, o ExperimentOpts) ([]AblationPoint, error) {
				return runAblation(ctx, o, study)
			},
			func(p AblationPoint) []string {
				return []string{
					p.Variant, fcell(p.Offered, 2),
					fcell(p.Results.Power.Total, 1), fcell(p.Results.CSCPercent, 1),
					fcell(p.Results.AvgLatency, 1), fcell(p.Results.AcceptedThroughput, 3),
				}
			})
	}
}
