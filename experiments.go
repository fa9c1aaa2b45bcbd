package catnap

import (
	"context"
	"fmt"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/power"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/traffic"
	"github.com/catnap-noc/catnap/internal/workload"
)

// This file contains one runner per table/figure of the paper's
// evaluation. Each returns plain data structures that the experiment
// registry (experiment.go) renders as the paper's rows/series;
// RunExperiment is their only public entry point. Cycle counts come from
// ExperimentOpts.Scale; zero selects the defaults used in EXPERIMENTS.md.
//
// Every grid-shaped runner (design × load and similar products) executes
// its points on the internal/runner worker pool. The points are
// independent — each builds its own simulator with its own seeded RNG —
// so results are bit-identical at any worker count.

// SweepProgress receives per-point start/finish/error events from the
// sweep engine; see internal/runner for the event schema and
// runner.NewConsole for a ready-made terminal reporter.
type SweepProgress = runner.Progress

// SweepEvent is one sweep progress notification.
type SweepEvent = runner.Event

// SweepOptions configures how a grid runner executes its points: the
// worker count (<= 0 selects GOMAXPROCS), the per-point timeout (0 means
// no limit), progress reporting, and the per-worker state. RunExperiment
// installs a SimPool builder as the worker state by default so
// consecutive points on a worker recycle one simulator; leave it nil for
// fresh construction per point.
type SweepOptions = runner.Options

// sweep executes the points and unwraps the ordered results,
// surfacing the first point failure as the sweep's error.
func sweep[T any](ctx context.Context, pts []runner.Point[T], opts SweepOptions) ([]T, error) {
	return runner.Values(runner.Run(ctx, pts, opts))
}

// simForCtx builds (or, on a reuse-pool worker, recycles) a simulator for
// cfg: when the running sweep installed a SimPool as its worker state the
// pool's instance is reset in place to cfg; otherwise the nil pool
// constructs a fresh simulator. Point closures route their construction
// through here so SweepOptions.WorkerState is the only reuse switch.
func simForCtx(ctx context.Context, cfg Config) (*Simulator, error) {
	p, _ := runner.WorkerState(ctx).(*SimPool)
	return p.Get(cfg)
}

// simPoint is the one simulated sweep point: it builds the config (inside
// the point, so a builder that errors or panics is reported against that
// point), takes a simulator from simForCtx, attaches its traffic source,
// runs the measurement window at sc, and reports row of the Results.
func simPoint[T any](label string, sc Scale, config func() (Config, error), attach func(*Simulator) error, row func(Results) T) runner.Point[T] {
	return runner.Point[T]{
		Label:  label,
		Cycles: sc.Warmup + sc.Measure,
		Run: func(ctx context.Context) (T, error) {
			var zero T
			cfg, err := config()
			if err != nil {
				return zero, err
			}
			sim, err := simForCtx(ctx, cfg)
			if err != nil {
				return zero, err
			}
			if err := attach(sim); err != nil {
				return zero, err
			}
			res, err := sim.measure(ctx, sc.Warmup, sc.Measure)
			if err != nil {
				return zero, err
			}
			return row(res), nil
		},
	}
}

// loadCase is one curve of a synthetic load sweep: the progress label
// its points carry, the traffic pattern, the configuration builder, and
// the row each measured point reports.
type loadCase[T any] struct {
	label   string
	pattern traffic.Pattern
	config  func() (Config, error)
	row     func(load float64, res Results) T
}

// loadSweep runs every case at every load of o.Loads (DefaultLoads when
// nil) on the sweep engine, case by case, each point an open-loop
// synthetic measurement at o.Scale (DefaultSyntheticScale for zero
// fields).
func loadSweep[T any](ctx context.Context, o ExperimentOpts, cases []loadCase[T]) ([]T, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	var pts []runner.Point[T]
	for _, c := range cases {
		for _, load := range loads {
			pts = append(pts, simPoint(fmt.Sprintf("%s @ %.2f", c.label, load), sc, c.config,
				func(sim *Simulator) error {
					sim.UseSynthetic(c.pattern, traffic.Constant(load), 0)
					return nil
				},
				func(res Results) T { return c.row(load, res) }))
		}
	}
	return sweep(ctx, pts, o.Sweep)
}

// designCases is one uniform-random loadCase per registered design,
// labelled by the design name.
func designCases[T any](designs []string, row func(design string, load float64, res Results) T) []loadCase[T] {
	cases := make([]loadCase[T], len(designs))
	for i, d := range designs {
		cases[i] = loadCase[T]{
			label:   d,
			pattern: traffic.UniformRandom{},
			config:  func() (Config, error) { return Design(d) },
			row:     func(load float64, res Results) T { return row(d, load, res) },
		}
	}
	return cases
}

// Scale selects simulation lengths for the canned experiments.
type Scale struct {
	// Warmup cycles before measurement.
	Warmup int64
	// Measure is the measurement window length.
	Measure int64
}

func (s Scale) or(warmup, measure int64) Scale {
	if s.Warmup == 0 {
		s.Warmup = warmup
	}
	if s.Measure == 0 {
		s.Measure = measure
	}
	return s
}

// DefaultSyntheticScale is used by the synthetic-traffic figures.
var DefaultSyntheticScale = Scale{Warmup: 3000, Measure: 12000}

// DefaultAppScale is used by the application-workload figures.
var DefaultAppScale = Scale{Warmup: 5000, Measure: 15000}

// DefaultLoads is the offered-load sweep of Figures 6/10/11 in
// packets/node/cycle.
var DefaultLoads = []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}

// mustDesign resolves a registered design or panics; the experiment
// runners only reference designs registered in this package.
func mustDesign(name string) Config {
	c, err := Design(name)
	if err != nil {
		panic(err)
	}
	return c
}

// mustSim builds a simulator or panics (config errors here are programmer
// errors in the runners, not user input).
func mustSim(cfg Config) *Simulator {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ---------------------------------------------------------------------------
// Figure 2 — per-core bandwidth matters: 128b vs 512b Single-NoC on Light
// and Heavy workloads.

// Fig2Row is one bar of Figure 2.
type Fig2Row struct {
	Workload   string
	Design     string
	SystemIPC  float64
	Normalized float64 // to the 512-bit design for the same workload
}

// runFig2 reproduces Figure 2: the Light and Heavy rows of the Figure 8
// matrix on the two Single-NoC widths.
func runFig2(ctx context.Context, o ExperimentOpts) ([]Fig2Row, error) {
	o.Mixes, o.Designs = []string{"Light", "Heavy"}, []string{"1NT-512b", "1NT-128b"}
	apps, err := runAppWorkloads(ctx, o)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, len(apps))
	for i, r := range apps {
		rows[i] = Fig2Row{Workload: r.Workload, Design: r.Design, SystemIPC: r.Results.SystemIPC, Normalized: r.NormalizedPerf}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 2 — router frequency/voltage pairs.

// runTable2 reproduces Table 2 from the crossbar critical-path model.
// The registry's "table2" entry is the sole public route to it.
func runTable2(context.Context, ExperimentOpts) ([]power.Table2Row, error) {
	p := power.DefaultParams()
	return p.Table2(), nil
}

// ---------------------------------------------------------------------------
// Figure 6 — throughput/latency of bandwidth-equivalent designs.

// Fig6Point is one (design, load) sample of Figure 6.
type Fig6Point struct {
	Design   string
	Offered  float64
	Accepted float64
	Latency  float64
}

// Fig6Designs are the bandwidth-equivalent configurations compared.
var Fig6Designs = []string{"1NT-512b", "2NT-256b", "4NT-128b", "8NT-64b"}

// runFig6 sweeps uniform-random load over the Figure 6 designs (no power
// gating, round-robin selection — the §5 characterization).
func runFig6(ctx context.Context, o ExperimentOpts) ([]Fig6Point, error) {
	return loadSweep(ctx, o, designCases(Fig6Designs, func(d string, load float64, res Results) Fig6Point {
		return Fig6Point{Design: d, Offered: load, Accepted: res.AcceptedThroughput, Latency: res.AvgLatency}
	}))
}

// ---------------------------------------------------------------------------
// Figure 7 — analytic power breakdown at near saturation.

// Fig7Row is one stacked bar of Figure 7.
type Fig7Row struct {
	Label     string
	VoltV     float64
	Breakdown power.Breakdown
}

// runFig7 computes the three Figure 7 bars at per-port load factor 0.5 and
// bit switching factor 0.15. The registry's "fig7" entry is the sole
// public route to it.
func runFig7(context.Context, ExperimentOpts) ([]Fig7Row, error) {
	mk := func(label, design string, volt float64) Fig7Row {
		cfg := mustDesign(design)
		cfg.VoltageV = volt
		cfg.ApplyDefaults()
		sim := mustSim(cfg)
		return Fig7Row{Label: label, VoltV: volt, Breakdown: sim.Model.AnalyticLoadPoint(0.5, 0.15)}
	}
	return []Fig7Row{
		mk("1NT-512b 0.750V", "1NT-512b", 0.750),
		mk("4NT-128b 0.750V", "4NT-128b", 0.750),
		mk("4NT-128b 0.625V", "4NT-128b", 0.625),
	}, nil
}

// ---------------------------------------------------------------------------
// Figures 8 and 9 — application workloads: power, performance, CSC.

// AppRow is one (workload, design) cell of Figures 8/9.
type AppRow struct {
	Workload string
	Design   string
	Results  Results
	// NormalizedPerf is SystemIPC normalized to 1NT-512b on the same
	// workload (Figure 8 right).
	NormalizedPerf float64
}

// Fig8Designs are the six configurations of Figure 8, in the paper's
// order.
var Fig8Designs = []string{"1NT-128b", "1NT-512b", "4NT-128b", "1NT-128b-PG", "1NT-512b-PG", "4NT-128b-PG"}

// AppWorkloadNames are the Table 3 mixes in demand order.
var AppWorkloadNames = []string{"Light", "Medium-Light", "Medium-Heavy", "Heavy"}

// runAppWorkloads runs every (mix, design) pair of Figures 8/9 and
// returns the full matrix; fig2 and headline derive from it too. The
// (mix, design) points are independent; normalization against the
// 1NT-512b baseline happens after the sweep (with a dedicated baseline
// point per mix appended when the caller's design list omits it).
func runAppWorkloads(ctx context.Context, o ExperimentOpts) ([]AppRow, error) {
	sc := o.Scale.or(DefaultAppScale.Warmup, DefaultAppScale.Measure)
	mixes, designs := o.Mixes, o.Designs
	if mixes == nil {
		mixes = AppWorkloadNames
	}
	if designs == nil {
		designs = Fig8Designs
	}
	appPoint := func(mix, design string) runner.Point[AppRow] {
		return simPoint(mix+"/"+design, sc,
			func() (Config, error) {
				cfg, err := Design(design)
				if err != nil {
					return Config{}, err
				}
				cfg.AppTraffic = true
				return cfg, nil
			},
			func(sim *Simulator) error {
				_, err := sim.UseMix(mix)
				return err
			},
			func(res Results) AppRow { return AppRow{Workload: mix, Design: design, Results: res} })
	}
	hasBase := false
	for _, d := range designs {
		if d == "1NT-512b" {
			hasBase = true
		}
	}
	var pts []runner.Point[AppRow]
	for _, mix := range mixes {
		for _, design := range designs {
			pts = append(pts, appPoint(mix, design))
		}
	}
	if !hasBase {
		// Normalize against a dedicated baseline run per mix when the
		// caller's design list omits it.
		for _, mix := range mixes {
			pts = append(pts, appPoint(mix, "1NT-512b"))
		}
	}
	vals, err := sweep(ctx, pts, o.Sweep)
	if err != nil {
		return nil, err
	}
	rows := vals[:len(mixes)*len(designs)]
	base := make(map[string]float64, len(mixes))
	for _, r := range vals {
		if r.Design == "1NT-512b" {
			base[r.Workload] = r.Results.SystemIPC
		}
	}
	for i := range rows {
		if b := base[rows[i].Workload]; b > 0 {
			rows[i].NormalizedPerf = rows[i].Results.SystemIPC / b
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — synthetic load sweep with and without power gating.

// Fig10Point is one (design, load) sample with the four panel quantities.
type Fig10Point struct {
	Design     string
	Offered    float64
	PowerW     float64
	CSCPercent float64
	Accepted   float64
	Latency    float64
}

// Fig10Designs are Figure 10's four configurations.
var Fig10Designs = []string{"1NT-512b", "4NT-128b", "1NT-512b-PG", "4NT-128b-PG"}

// runFig10 sweeps uniform-random load over the four designs.
func runFig10(ctx context.Context, o ExperimentOpts) ([]Fig10Point, error) {
	return loadSweep(ctx, o, designCases(Fig10Designs, func(d string, load float64, res Results) Fig10Point {
		return Fig10Point{
			Design: d, Offered: load,
			PowerW: res.Power.Total, CSCPercent: res.CSCPercent,
			Accepted: res.AcceptedThroughput, Latency: res.AvgLatency,
		}
	}))
}

// ---------------------------------------------------------------------------
// Figure 11 — congestion-metric comparison.

// Fig11Policy names one curve of Figure 11 and builds its configuration.
type Fig11Policy struct {
	Name string
	Cfg  func() Config
}

// Fig11Policies are the six curves: the RR baseline and the five
// Catnap-policy variants (§3.4 metrics plus the local-only ablations).
var Fig11Policies = []Fig11Policy{
	{"RR", func() Config { return mustDesign("4NT-128b-PG-RR") }},
	{"BFA", func() Config { return metricDesign(congestion.BFA, false) }},
	{"Delay", func() Config { return metricDesign(congestion.Delay, false) }},
	{"BFM", func() Config { return metricDesign(congestion.BFM, false) }},
	{"BFM-local", func() Config { return metricDesign(congestion.BFM, true) }},
	{"IQOcc-local", func() Config { return metricDesign(congestion.IQOcc, true) }},
}

// metricDesign returns the 4NT-128b Catnap design with the given local
// congestion metric (and optionally regional detection disabled).
func metricDesign(metric congestion.MetricKind, localOnly bool) Config {
	cfg := mustDesign("4NT-128b-PG")
	cfg.Metric = metric
	cfg.LocalOnly = localOnly
	suffix := metric.String()
	if localOnly {
		suffix += "-local"
	}
	cfg.Name = "4NT-128b-PG-" + suffix
	return cfg
}

// Fig11Point is one (policy, load) sample.
type Fig11Point struct {
	Policy     string
	Offered    float64
	Accepted   float64
	Latency    float64
	CSCPercent float64
}

// runFig11 sweeps one traffic pattern (ExperimentOpts.Pattern:
// "uniform-random", the default, "transpose" or "bit-complement" —
// panels a–c) over the six policies; the CSC column doubles as panel (d)
// for the RR and BFM rows. An unknown pattern name errors up front
// (listing the valid choices) before any point runs.
func runFig11(ctx context.Context, o ExperimentOpts) ([]Fig11Point, error) {
	patternName := o.Pattern
	if patternName == "" {
		patternName = "uniform-random"
	}
	pattern, err := traffic.PatternByName(patternName)
	if err != nil {
		return nil, err
	}
	cases := make([]loadCase[Fig11Point], len(Fig11Policies))
	for i, pol := range Fig11Policies {
		cases[i] = loadCase[Fig11Point]{
			label:   pol.Name,
			pattern: pattern,
			config:  func() (Config, error) { return pol.Cfg(), nil },
			row: func(load float64, res Results) Fig11Point {
				return Fig11Point{
					Policy: pol.Name, Offered: load,
					Accepted: res.AcceptedThroughput, Latency: res.AvgLatency, CSCPercent: res.CSCPercent,
				}
			},
		}
	}
	return loadSweep(ctx, o, cases)
}

// ---------------------------------------------------------------------------
// Figure 12 — ramp-up and decay under bursty traffic.

// Fig12Point is one 50-cycle sample of Figure 12's two panels.
type Fig12Point struct {
	Cycle       int64
	Offered     float64   // packets/node/cycle generated in the window
	Accepted    float64   // packets/node/cycle delivered in the window
	SubnetShare []float64 // fraction of injected flits per subnet
}

// fig12Total is fig12's simulated length when ExperimentOpts.Total is 0,
// the paper's 3000 cycles.
const fig12Total = 3000

// runFig12 runs the two-burst schedule on the Catnap design for
// ExperimentOpts.Total cycles (fig12Total when 0) and samples throughput
// and subnet utilization every ExperimentOpts.Window cycles (50 in the
// paper), each window one StartMeasure/StopMeasure pair. A window longer
// than the run would sample nothing, so it is rejected before anything
// is simulated. It is the one canned experiment that honors
// ExperimentOpts.Telemetry directly: a non-nil recorder is attached to
// the single simulated network, so its metrics carry the windowed
// per-subnet power-state series the burst plots are built from.
// Cancellation of ctx is checked as RunCtx checks it, at least once per
// window.
func runFig12(ctx context.Context, o ExperimentOpts) ([]Fig12Point, error) {
	total, window := o.Total, o.Window
	if total == 0 {
		total = fig12Total
	}
	if window == 0 {
		window = 50
	}
	if window > total {
		return nil, fmt.Errorf("catnap: ExperimentOpts.Window = %d, want <= fig12's %d-cycle total", window, total)
	}
	sim := mustSim(mustDesign("4NT-128b-PG"))
	if o.Telemetry != nil {
		sim.EnableTelemetry(o.Telemetry, "fig12")
	}
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Fig12Bursts(), 0)

	out := make([]Fig12Point, 0, total/window)
	for range total / window {
		sim.StartMeasure()
		if err := sim.RunCtx(ctx, window); err != nil {
			return nil, err
		}
		res := sim.StopMeasure()
		out = append(out, Fig12Point{
			Cycle:       sim.Net.Now(),
			Offered:     res.OfferedThroughput,
			Accepted:    res.AcceptedThroughput,
			SubnetShare: res.SubnetShare,
		})
	}
	// The cycles after the last whole window are simulated but not
	// sampled, so an attached telemetry collector sees the whole run.
	if err := sim.RunCtx(ctx, total%window); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 13 — the injection-rate metric's threshold problem.

// Fig13Point is one (threshold, load) sample for a pattern.
type Fig13Point struct {
	Pattern   string
	Threshold float64
	Offered   float64
	Latency   float64
	Accepted  float64
}

// Fig13Thresholds are the swept IR thresholds (packets/node/cycle).
var Fig13Thresholds = []float64{0.04, 0.08, 0.12, 0.16, 0.20, 0.24}

// runFig13 sweeps IR-threshold subnet selection (no power gating, as in
// the paper) over uniform-random and transpose traffic.
func runFig13(ctx context.Context, o ExperimentOpts) ([]Fig13Point, error) {
	var cases []loadCase[Fig13Point]
	for _, patName := range []string{"uniform-random", "transpose"} {
		pattern, err := traffic.PatternByName(patName)
		if err != nil {
			return nil, err
		}
		for _, thr := range Fig13Thresholds {
			cases = append(cases, loadCase[Fig13Point]{
				label:   fmt.Sprintf("%s thr=%.2f", patName, thr),
				pattern: pattern,
				config: func() (Config, error) {
					cfg, err := Design("4NT-128b")
					if err != nil {
						return Config{}, err
					}
					cfg.Selector = SelectorCatnap
					cfg.Gating = GatingOff
					cfg.Metric = congestion.IR
					cfg.MetricThreshold = thr
					cfg.Name = fmt.Sprintf("4NT-128b-IR-%.2f", thr)
					return cfg, nil
				},
				row: func(load float64, res Results) Fig13Point {
					return Fig13Point{Pattern: patName, Threshold: thr, Offered: load, Latency: res.AvgLatency, Accepted: res.AcceptedThroughput}
				},
			})
		}
	}
	return loadSweep(ctx, o, cases)
}

// ---------------------------------------------------------------------------
// Figure 14 — the 64-core processor study.

// Fig14Point is one (design, load) sample of CSC and latency.
type Fig14Point struct {
	Design     string
	Offered    float64
	CSCPercent float64
	Latency    float64
	Accepted   float64
}

// runFig14 sweeps uniform random over the 64-core designs.
func runFig14(ctx context.Context, o ExperimentOpts) ([]Fig14Point, error) {
	designs := []string{"64c-1NT-256b-PG", "64c-2NT-128b-PG"}
	return loadSweep(ctx, o, designCases(designs, func(d string, load float64, res Results) Fig14Point {
		return Fig14Point{Design: d, Offered: load, CSCPercent: res.CSCPercent, Latency: res.AvgLatency, Accepted: res.AcceptedThroughput}
	}))
}

// ---------------------------------------------------------------------------
// Per-benchmark characterization — runs every one of the 35 application
// profiles homogeneously (all cores the same benchmark) on a 64-core
// system and reports its realized network demand. This is the data behind
// Table 3's mix construction: the MPKI ordering must survive the closed
// loop.

// ProfileRow characterizes one benchmark.
type ProfileRow struct {
	Benchmark string
	Suite     string
	MPKI      float64 // profile input (Table 3 basis)
	IPC       float64 // realized per-core IPC
	// PacketsPerNodeCycle is the realized network demand.
	PacketsPerNodeCycle float64
	AvgLatency          float64
}

// runProfiles characterizes every benchmark in the library on a 64-core
// 1NT-256b system (characterization needs per-core behaviour, not chip
// scale), one sweep point per benchmark profile.
func runProfiles(ctx context.Context, o ExperimentOpts) ([]ProfileRow, error) {
	sc := o.Scale.or(3000, 10000)
	cfg := BaseConfig()
	cfg.Name = "64c-1NT-256b"
	cfg.Rows, cfg.Cols, cfg.RegionDim = 4, 4, 2
	cfg.Subnets, cfg.LinkWidthBits = 1, 256
	cfg.AppTraffic = true
	cfg.ApplyDefaults()
	nodes := cfg.Rows * cfg.Cols
	cores := nodes * cfg.TilesPerNode
	var pts []runner.Point[ProfileRow]
	for i := range workload.Profiles {
		prof := &workload.Profiles[i]
		pts = append(pts, simPoint(prof.Name, sc, func() (Config, error) { return cfg, nil },
			func(sim *Simulator) error {
				assign := make([]*workload.Profile, cores)
				for t := range assign {
					assign[t] = prof
				}
				_, err := sim.useAssignment(assign)
				return err
			},
			func(res Results) ProfileRow {
				return ProfileRow{
					Benchmark:           prof.Name,
					Suite:               prof.Suite,
					MPKI:                prof.MPKI(),
					IPC:                 res.SystemIPC / float64(cores),
					PacketsPerNodeCycle: float64(res.PacketsDelivered) / float64(res.Cycles) / float64(nodes),
					AvgLatency:          res.AvgLatency,
				}
			}))
	}
	return sweep(ctx, pts, o.Sweep)
}

// ---------------------------------------------------------------------------
// Topology comparison — beyond the paper's figures (its §8 future work):
// does the Catnap story survive on a topology with wraparound links?

// TopologyPoint is one (design, load) sample of the mesh-vs-torus
// comparison.
type TopologyPoint struct {
	Design     string
	Offered    float64
	Accepted   float64
	Latency    float64
	PowerW     float64
	CSCPercent float64
}

// runTopology sweeps uniform random over the mesh, torus, and flattened
// butterfly Catnap designs.
func runTopology(ctx context.Context, o ExperimentOpts) ([]TopologyPoint, error) {
	designs := []string{"4NT-128b-PG", "4NT-128b-PG-torus", "4NT-128b-PG-fbfly"}
	return loadSweep(ctx, o, designCases(designs, func(d string, load float64, res Results) TopologyPoint {
		return TopologyPoint{
			Design: d, Offered: load,
			Accepted: res.AcceptedThroughput, Latency: res.AvgLatency,
			PowerW: res.Power.Total, CSCPercent: res.CSCPercent,
		}
	}))
}

// ---------------------------------------------------------------------------
// Heterogeneous placement — beyond the paper's figures, but directly its
// §3.2.1 motivation: when a Heavy mix runs on the west half of the chip
// and a Light mix on the east half, traffic is spatially non-uniform and
// local congestion detection at an injecting node lags the congestion its
// packets will meet. Regional detection (the 1-bit OR network) closes
// that gap.

// HeteroRow is one detection variant's outcome on the split-chip
// scenario.
type HeteroRow struct {
	Variant string
	Results Results
}

// runHetero compares regional vs local-only BFM detection on the
// Heavy-west / Light-east split chip.
func runHetero(ctx context.Context, o ExperimentOpts) ([]HeteroRow, error) {
	sc := o.Scale.or(DefaultAppScale.Warmup, DefaultAppScale.Measure)
	var pts []runner.Point[HeteroRow]
	for _, localOnly := range []bool{false, true} {
		label := "regional"
		if localOnly {
			label = "local-only"
		}
		pts = append(pts, simPoint("hetero/"+label, sc,
			func() (Config, error) {
				cfg, err := Design("4NT-128b-PG")
				if err != nil {
					return Config{}, err
				}
				cfg.AppTraffic = true
				cfg.LocalOnly = localOnly
				cfg.Name = "4NT-128b-PG-" + label
				return cfg, nil
			},
			func(sim *Simulator) error {
				_, err := sim.UseSplitMix("Heavy", "Light")
				return err
			},
			func(res Results) HeteroRow { return HeteroRow{Variant: label, Results: res} }))
	}
	return sweep(ctx, pts, o.Sweep)
}

// ---------------------------------------------------------------------------
// Headline — §1/§6.2: average power and performance across workloads.

// Headline summarises the paper's headline comparison.
type Headline struct {
	// SingleAvgPowerW and MultiPGAvgPowerW average network power across
	// the four Table 3 workloads (paper: ≈36 W vs ≈20 W).
	SingleAvgPowerW  float64
	MultiPGAvgPowerW float64
	// PowerReduction is 1 − multi/single (paper: ≈44%).
	PowerReduction float64
	// AvgPerfCost is the mean performance loss of 4NT-128b-PG vs 1NT-512b
	// (paper: ≈5%).
	AvgPerfCost float64
	// LightCSCPercent is the compensated sleep cycles on the Light mix
	// (paper: ≈70%).
	LightCSCPercent float64
}

// runHeadline computes the headline numbers from the Figure 8/9 matrix.
func runHeadline(ctx context.Context, o ExperimentOpts) (Headline, error) {
	o.Mixes, o.Designs = nil, []string{"1NT-512b", "4NT-128b-PG"}
	rows, err := runAppWorkloads(ctx, o)
	if err != nil {
		return Headline{}, err
	}
	var h Headline
	var nSingle, nMulti, nPerf int
	for _, r := range rows {
		switch r.Design {
		case "1NT-512b":
			h.SingleAvgPowerW += r.Results.Power.Total
			nSingle++
		case "4NT-128b-PG":
			h.MultiPGAvgPowerW += r.Results.Power.Total
			h.AvgPerfCost += 1 - r.NormalizedPerf
			nMulti++
			nPerf++
			if r.Workload == "Light" {
				h.LightCSCPercent = r.Results.CSCPercent
			}
		}
	}
	if nSingle > 0 {
		h.SingleAvgPowerW /= float64(nSingle)
	}
	if nMulti > 0 {
		h.MultiPGAvgPowerW /= float64(nMulti)
	}
	if nPerf > 0 {
		h.AvgPerfCost /= float64(nPerf)
	}
	if h.SingleAvgPowerW > 0 {
		h.PowerReduction = 1 - h.MultiPGAvgPowerW/h.SingleAvgPowerW
	}
	return h, nil
}
