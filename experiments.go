package catnap

import (
	"context"
	"fmt"
	"time"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/cpusim"
	"github.com/catnap-noc/catnap/internal/power"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/traffic"
	"github.com/catnap-noc/catnap/internal/workload"
)

// This file contains one runner per table/figure of the paper's
// evaluation. Each returns plain data structures that cmd/catnap renders
// as the paper's rows/series and bench_test.go exercises. Cycle counts are
// parameters so benchmarks can trade precision for time; zero selects the
// defaults used in EXPERIMENTS.md.
//
// Every grid-shaped runner (design × load and similar products) has a
// Ctx variant that executes its points on the internal/runner worker
// pool. The points are independent — each builds its own simulator with
// its own seeded RNG — so results are bit-identical at any worker count;
// the plain RunFigN functions are thin wrappers over the Ctx variants
// with a background context and default SweepOptions.

// SweepProgress receives per-point start/finish/error events from the
// sweep engine; see internal/runner for the event schema and
// runner.NewConsole for a ready-made terminal reporter.
type SweepProgress = runner.Progress

// SweepEvent is one sweep progress notification.
type SweepEvent = runner.Event

// SweepOptions configures how a grid runner executes its points.
type SweepOptions struct {
	// Jobs is the worker count; <= 0 selects GOMAXPROCS.
	Jobs int
	// Timeout bounds each point's wall-clock time; 0 means no limit.
	Timeout time.Duration
	// Progress receives per-point events; nil disables reporting.
	Progress SweepProgress
	// WorkerState builds one per-worker state value (see
	// runner.Options.WorkerState). RunExperiment installs a SimPool
	// builder here by default so consecutive points on a worker recycle
	// one simulator; leave nil for fresh construction per point.
	WorkerState func() any
}

func (o SweepOptions) runnerOptions() runner.Options {
	return runner.Options{Jobs: o.Jobs, Timeout: o.Timeout, Progress: o.Progress, WorkerState: o.WorkerState}
}

// sweep executes the points and unwraps the ordered results,
// surfacing the first point failure as the sweep's error.
func sweep[T any](ctx context.Context, pts []runner.Point[T], opts SweepOptions) ([]T, error) {
	return runner.Values(runner.Run(ctx, pts, opts.runnerOptions()))
}

// newSim builds a simulator for a registered design, returning (not
// panicking on) lookup errors so engine points degrade cleanly. The
// opts carry simulator-level tuning (NoIdleSkip) into the config.
func newSim(design string, o ExperimentOpts) (*Simulator, error) {
	cfg, err := Design(design)
	if err != nil {
		return nil, err
	}
	return New(o.tuneCfg(cfg))
}

// simForCtx builds (or, on a reuse-pool worker, recycles) a simulator for
// cfg: when the running sweep installed a SimPool as its worker state the
// pool's instance is reset in place to cfg, otherwise a fresh simulator
// is constructed. Point closures route their construction through here so
// SweepOptions.WorkerState is the only reuse switch.
func simForCtx(ctx context.Context, cfg Config) (*Simulator, error) {
	if p, ok := runner.WorkerState(ctx).(*SimPool); ok {
		return p.Get(cfg)
	}
	return New(cfg)
}

// newSimCtx is newSim routed through the worker's reuse pool, if any.
func newSimCtx(ctx context.Context, design string, o ExperimentOpts) (*Simulator, error) {
	cfg, err := Design(design)
	if err != nil {
		return nil, err
	}
	return simForCtx(ctx, o.tuneCfg(cfg))
}

// tuneCfg applies the simulator-level options to one design config:
// NoIdleSkip maps onto Config.NoIdleSkip. Every runner routes its configs
// through here so a single -no-skip flag reaches all simulators an
// experiment builds.
func (o ExperimentOpts) tuneCfg(cfg Config) Config {
	if o.NoIdleSkip {
		cfg.NoIdleSkip = true
	}
	return cfg
}

// pointLabel names a (design, load) point for progress output.
func pointLabel(design string, load float64) string {
	return fmt.Sprintf("%s @ %.2f", design, load)
}

// mustSweep adapts a Ctx runner to the legacy error-free wrapper
// signature. With a background context and the built-in design names the
// error path is unreachable (it would be a programmer error, matching
// the previous mustDesign/mustSim panics).
func mustSweep[T any](vals []T, err error) []T {
	if err != nil {
		panic(err)
	}
	return vals
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

// RunFig2 reproduces Figure 2.
//
// Deprecated: use RunExperiment(ctx, "fig2", opts).
func RunFig2(sc Scale) ([]Fig2Row, error) {
	return runFig2(ExperimentOpts{Scale: sc})
}

// runFig2 is the fig2 implementation over consolidated options.
func runFig2(o ExperimentOpts) ([]Fig2Row, error) {
	sc := o.Scale.or(DefaultAppScale.Warmup, DefaultAppScale.Measure)
	var rows []Fig2Row
	for _, mix := range []string{"Light", "Heavy"} {
		var base float64
		for _, design := range []string{"1NT-512b", "1NT-128b"} {
			cfg := mustDesign(design)
			cfg.AppTraffic = true
			sim := mustSim(o.tuneCfg(cfg))
			if _, err := sim.UseMix(mix); err != nil {
				return nil, err
			}
			sim.Run(sc.Warmup)
			sim.StartMeasure()
			sim.Run(sc.Measure)
			res := sim.StopMeasure()
			if design == "1NT-512b" {
				base = res.SystemIPC
			}
			norm := 0.0
			if base > 0 {
				norm = res.SystemIPC / base
			}
			rows = append(rows, Fig2Row{Workload: mix, Design: design, SystemIPC: res.SystemIPC, Normalized: norm})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 2 — router frequency/voltage pairs.

// runTable2 reproduces Table 2 from the crossbar critical-path model.
// The registry's "table2" entry is the sole public route to it.
func runTable2() []power.Table2Row {
	p := power.DefaultParams()
	return p.Table2()
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

// RunFig6 sweeps uniform-random load over the Figure 6 designs (no power
// gating, round-robin selection — the §5 characterization).
//
// Deprecated: use RunExperiment(ctx, "fig6", opts).
func RunFig6(sc Scale, loads []float64) []Fig6Point {
	return mustSweep(RunFig6Ctx(context.Background(), sc, loads, SweepOptions{}))
}

// RunFig6Ctx is RunFig6 on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "fig6", opts).
func RunFig6Ctx(ctx context.Context, sc Scale, loads []float64, opts SweepOptions) ([]Fig6Point, error) {
	return runFig6(ctx, ExperimentOpts{Scale: sc, Loads: loads, Sweep: opts})
}

// runFig6 is the fig6 implementation over consolidated options.
func runFig6(ctx context.Context, o ExperimentOpts) ([]Fig6Point, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	var pts []runner.Point[Fig6Point]
	for _, d := range Fig6Designs {
		for _, load := range loads {
			pts = append(pts, runner.Point[Fig6Point]{
				Label:  pointLabel(d, load),
				Cycles: sc.Warmup + sc.Measure,
				Run: func(ctx context.Context) (Fig6Point, error) {
					sim, err := newSimCtx(ctx, d, o)
					if err != nil {
						return Fig6Point{}, err
					}
					res, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), sc.Warmup, sc.Measure)
					if err != nil {
						return Fig6Point{}, err
					}
					return Fig6Point{Design: d, Offered: load, Accepted: res.AcceptedThroughput, Latency: res.AvgLatency}, nil
				},
			})
		}
	}
	return sweep(ctx, pts, o.Sweep)
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
func runFig7() []Fig7Row {
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
	}
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

// RunAppWorkloads runs every (mix, design) pair of Figures 8/9 and
// returns the full matrix. RunFig8/RunFig9/RunHeadline all derive from it.
//
// Deprecated: use RunExperiment(ctx, "fig8", opts) (or "fig9").
func RunAppWorkloads(sc Scale, mixes, designs []string) ([]AppRow, error) {
	return RunAppWorkloadsCtx(context.Background(), sc, mixes, designs, SweepOptions{})
}

// RunAppWorkloadsCtx is RunAppWorkloads on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "fig8", opts) (or "fig9").
func RunAppWorkloadsCtx(ctx context.Context, sc Scale, mixes, designs []string, opts SweepOptions) ([]AppRow, error) {
	return runAppWorkloads(ctx, ExperimentOpts{Scale: sc, Mixes: mixes, Designs: designs, Sweep: opts})
}

// runAppWorkloads is the fig8/fig9 implementation over consolidated
// options. The (mix, design) points are independent; normalization
// against the 1NT-512b baseline happens after the sweep (with a
// dedicated baseline point per mix appended when the caller's design
// list omits it).
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
		return runner.Point[AppRow]{
			Label:  mix + "/" + design,
			Cycles: sc.Warmup + sc.Measure,
			Run: func(ctx context.Context) (AppRow, error) {
				cfg, err := Design(design)
				if err != nil {
					return AppRow{}, err
				}
				cfg.AppTraffic = true
				sim, err := simForCtx(ctx, o.tuneCfg(cfg))
				if err != nil {
					return AppRow{}, err
				}
				res, err := sim.RunApp(ctx, mix, sc.Warmup, sc.Measure)
				if err != nil {
					return AppRow{}, err
				}
				return AppRow{Workload: mix, Design: design, Results: res}, nil
			},
		}
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

// RunFig10 sweeps uniform-random load over the four designs.
//
// Deprecated: use RunExperiment(ctx, "fig10", opts).
func RunFig10(sc Scale, loads []float64) []Fig10Point {
	return mustSweep(RunFig10Ctx(context.Background(), sc, loads, SweepOptions{}))
}

// RunFig10Ctx is RunFig10 on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "fig10", opts).
func RunFig10Ctx(ctx context.Context, sc Scale, loads []float64, opts SweepOptions) ([]Fig10Point, error) {
	return runFig10(ctx, ExperimentOpts{Scale: sc, Loads: loads, Sweep: opts})
}

// runFig10 is the fig10 implementation over consolidated options.
func runFig10(ctx context.Context, o ExperimentOpts) ([]Fig10Point, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	var pts []runner.Point[Fig10Point]
	for _, d := range Fig10Designs {
		for _, load := range loads {
			pts = append(pts, runner.Point[Fig10Point]{
				Label:  pointLabel(d, load),
				Cycles: sc.Warmup + sc.Measure,
				Run: func(ctx context.Context) (Fig10Point, error) {
					sim, err := newSimCtx(ctx, d, o)
					if err != nil {
						return Fig10Point{}, err
					}
					res, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), sc.Warmup, sc.Measure)
					if err != nil {
						return Fig10Point{}, err
					}
					return Fig10Point{
						Design: d, Offered: load,
						PowerW: res.Power.Total, CSCPercent: res.CSCPercent,
						Accepted: res.AcceptedThroughput, Latency: res.AvgLatency,
					}, nil
				},
			})
		}
	}
	return sweep(ctx, pts, o.Sweep)
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

// RunFig11 sweeps one traffic pattern over the six policies. patternName
// is "uniform-random", "transpose" or "bit-complement" (panels a–c); the
// CSC column doubles as panel (d) for the RR and BFM rows.
//
// Deprecated: use RunExperiment(ctx, "fig11", opts).
func RunFig11(sc Scale, patternName string, loads []float64) ([]Fig11Point, error) {
	return RunFig11Ctx(context.Background(), sc, patternName, loads, SweepOptions{})
}

// RunFig11Ctx is RunFig11 on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "fig11", opts).
func RunFig11Ctx(ctx context.Context, sc Scale, patternName string, loads []float64, opts SweepOptions) ([]Fig11Point, error) {
	return runFig11(ctx, ExperimentOpts{Scale: sc, Pattern: patternName, Loads: loads, Sweep: opts})
}

// runFig11 is the fig11 implementation over consolidated options. An
// unknown pattern name errors up front (listing the valid choices)
// before any point runs.
func runFig11(ctx context.Context, o ExperimentOpts) ([]Fig11Point, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	patternName := o.Pattern
	if patternName == "" {
		patternName = "uniform-random"
	}
	pattern, err := traffic.PatternByName(patternName)
	if err != nil {
		return nil, err
	}
	var pts []runner.Point[Fig11Point]
	for _, pol := range Fig11Policies {
		for _, load := range loads {
			pts = append(pts, runner.Point[Fig11Point]{
				Label:  pointLabel(pol.Name, load),
				Cycles: sc.Warmup + sc.Measure,
				Run: func(ctx context.Context) (Fig11Point, error) {
					sim, err := simForCtx(ctx, o.tuneCfg(pol.Cfg()))
					if err != nil {
						return Fig11Point{}, err
					}
					res, err := sim.RunSyntheticCtx(ctx, pattern, traffic.Constant(load), sc.Warmup, sc.Measure)
					if err != nil {
						return Fig11Point{}, err
					}
					return Fig11Point{
						Policy: pol.Name, Offered: load,
						Accepted: res.AcceptedThroughput, Latency: res.AvgLatency, CSCPercent: res.CSCPercent,
					}, nil
				},
			})
		}
	}
	return sweep(ctx, pts, o.Sweep)
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

// RunFig12 runs the two-burst schedule on the Catnap design and samples
// throughput and subnet utilization every `window` cycles (50 in the
// paper). total is the simulated length (3000 cycles in the paper).
//
// Deprecated: use RunExperiment(ctx, "fig12", opts).
func RunFig12(total, window int64) []Fig12Point {
	return runFig12(ExperimentOpts{Total: total, Window: window})
}

// runFig12 is the fig12 implementation over consolidated options. It is
// the one canned experiment that honors ExperimentOpts.Telemetry
// directly: a non-nil recorder is attached to the single simulated
// network, so its metrics carry the windowed per-subnet power-state
// series the burst plots are built from.
func runFig12(o ExperimentOpts) []Fig12Point {
	total, window := o.Total, o.Window
	if total == 0 {
		total = 3000
	}
	if window == 0 {
		window = 50
	}
	sim := mustSim(o.tuneCfg(mustDesign("4NT-128b-PG")))
	if o.Telemetry != nil {
		sim.EnableTelemetry(o.Telemetry, "fig12")
	}
	gen := sim.UseSynthetic(traffic.UniformRandom{}, traffic.Fig12Bursts(), 0)

	nodes := float64(sim.Net.Topo().Nodes())
	subnets := sim.Net.Subnets()
	prevOffered := int64(0)
	prevEjected := int64(0)
	prevFlits := make([]int64, subnets)
	var out []Fig12Point

	for sim.Net.Now() < total {
		sim.Step()
		now := sim.Net.Now()
		if now%window != 0 {
			continue
		}
		_, _, ejected := sim.Net.Counts()
		cur := make([]int64, subnets)
		for n := 0; n < int(nodes); n++ {
			for s, c := range sim.Net.NI(n).FlitsPerSubnet {
				cur[s] += c
			}
		}
		var totalFlits int64
		share := make([]float64, subnets)
		for s := range cur {
			totalFlits += cur[s] - prevFlits[s]
		}
		for s := range cur {
			if totalFlits > 0 {
				share[s] = float64(cur[s]-prevFlits[s]) / float64(totalFlits)
			}
		}
		out = append(out, Fig12Point{
			Cycle:       now,
			Offered:     float64(gen.Offered-prevOffered) / float64(window) / nodes,
			Accepted:    float64(ejected-prevEjected) / float64(window) / nodes,
			SubnetShare: share,
		})
		prevOffered = gen.Offered
		prevEjected = ejected
		copy(prevFlits, cur)
	}
	return out
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

// RunFig13 sweeps IR-threshold subnet selection (no power gating, as in
// the paper) over uniform-random and transpose traffic.
//
// Deprecated: use RunExperiment(ctx, "fig13", opts).
func RunFig13(sc Scale, loads []float64) ([]Fig13Point, error) {
	return RunFig13Ctx(context.Background(), sc, loads, SweepOptions{})
}

// RunFig13Ctx is RunFig13 on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "fig13", opts).
func RunFig13Ctx(ctx context.Context, sc Scale, loads []float64, opts SweepOptions) ([]Fig13Point, error) {
	return runFig13(ctx, ExperimentOpts{Scale: sc, Loads: loads, Sweep: opts})
}

// runFig13 is the fig13 implementation over consolidated options.
func runFig13(ctx context.Context, o ExperimentOpts) ([]Fig13Point, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	var pts []runner.Point[Fig13Point]
	for _, patName := range []string{"uniform-random", "transpose"} {
		pattern, err := traffic.PatternByName(patName)
		if err != nil {
			return nil, err
		}
		for _, thr := range Fig13Thresholds {
			for _, load := range loads {
				pts = append(pts, runner.Point[Fig13Point]{
					Label:  fmt.Sprintf("%s thr=%.2f @ %.2f", patName, thr, load),
					Cycles: sc.Warmup + sc.Measure,
					Run: func(ctx context.Context) (Fig13Point, error) {
						cfg, err := Design("4NT-128b")
						if err != nil {
							return Fig13Point{}, err
						}
						cfg.Selector = SelectorCatnap
						cfg.Gating = GatingOff
						cfg.Metric = congestion.IR
						cfg.MetricThreshold = thr
						cfg.Name = fmt.Sprintf("4NT-128b-IR-%.2f", thr)
						sim, err := simForCtx(ctx, o.tuneCfg(cfg))
						if err != nil {
							return Fig13Point{}, err
						}
						res, err := sim.RunSyntheticCtx(ctx, pattern, traffic.Constant(load), sc.Warmup, sc.Measure)
						if err != nil {
							return Fig13Point{}, err
						}
						return Fig13Point{Pattern: patName, Threshold: thr, Offered: load, Latency: res.AvgLatency, Accepted: res.AcceptedThroughput}, nil
					},
				})
			}
		}
	}
	return sweep(ctx, pts, o.Sweep)
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

// RunFig14 sweeps uniform random over the 64-core designs.
//
// Deprecated: use RunExperiment(ctx, "fig14", opts).
func RunFig14(sc Scale, loads []float64) []Fig14Point {
	return mustSweep(RunFig14Ctx(context.Background(), sc, loads, SweepOptions{}))
}

// RunFig14Ctx is RunFig14 on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "fig14", opts).
func RunFig14Ctx(ctx context.Context, sc Scale, loads []float64, opts SweepOptions) ([]Fig14Point, error) {
	return runFig14(ctx, ExperimentOpts{Scale: sc, Loads: loads, Sweep: opts})
}

// runFig14 is the fig14 implementation over consolidated options.
func runFig14(ctx context.Context, o ExperimentOpts) ([]Fig14Point, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	var pts []runner.Point[Fig14Point]
	for _, d := range []string{"64c-1NT-256b-PG", "64c-2NT-128b-PG"} {
		for _, load := range loads {
			pts = append(pts, runner.Point[Fig14Point]{
				Label:  pointLabel(d, load),
				Cycles: sc.Warmup + sc.Measure,
				Run: func(ctx context.Context) (Fig14Point, error) {
					sim, err := newSimCtx(ctx, d, o)
					if err != nil {
						return Fig14Point{}, err
					}
					res, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), sc.Warmup, sc.Measure)
					if err != nil {
						return Fig14Point{}, err
					}
					return Fig14Point{Design: d, Offered: load, CSCPercent: res.CSCPercent, Latency: res.AvgLatency, Accepted: res.AcceptedThroughput}, nil
				},
			})
		}
	}
	return sweep(ctx, pts, o.Sweep)
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

// RunProfiles characterizes every benchmark in the library on a 64-core
// 1NT-256b system (characterization needs per-core behaviour, not chip
// scale).
//
// Deprecated: use RunExperiment(ctx, "profiles", opts).
func RunProfiles(sc Scale) ([]ProfileRow, error) {
	return RunProfilesCtx(context.Background(), sc, SweepOptions{})
}

// RunProfilesCtx is RunProfiles on the parallel sweep engine — one point
// per benchmark profile.
//
// Deprecated: use RunExperiment(ctx, "profiles", opts).
func RunProfilesCtx(ctx context.Context, sc Scale, opts SweepOptions) ([]ProfileRow, error) {
	return runProfiles(ctx, ExperimentOpts{Scale: sc, Sweep: opts})
}

// runProfiles is the profiles implementation over consolidated options.
func runProfiles(ctx context.Context, o ExperimentOpts) ([]ProfileRow, error) {
	sc := o.Scale.or(3000, 10000)
	var pts []runner.Point[ProfileRow]
	for i := range workload.Profiles {
		prof := &workload.Profiles[i]
		pts = append(pts, runner.Point[ProfileRow]{
			Label:  prof.Name,
			Cycles: sc.Warmup + sc.Measure,
			Run: func(ctx context.Context) (ProfileRow, error) {
				cfg := BaseConfig()
				cfg.Name = "64c-1NT-256b"
				cfg.Rows, cfg.Cols, cfg.RegionDim = 4, 4, 2
				cfg.Subnets, cfg.LinkWidthBits = 1, 256
				cfg.AppTraffic = true
				cfg.ApplyDefaults()
				sim, err := simForCtx(ctx, o.tuneCfg(cfg))
				if err != nil {
					return ProfileRow{}, err
				}
				assign := make([]*workload.Profile, sim.Net.Topo().Tiles())
				for t := range assign {
					assign[t] = prof
				}
				scfg := cpusim.DefaultConfig()
				scfg.Seed = cfg.Seed
				sys, err := cpusim.NewWithAssignment(sim.Net, scfg, assign)
				if err != nil {
					return ProfileRow{}, err
				}
				sim.sys = sys
				if err := sim.RunCtx(ctx, sc.Warmup); err != nil {
					return ProfileRow{}, err
				}
				sim.StartMeasure()
				if err := sim.RunCtx(ctx, sc.Measure); err != nil {
					return ProfileRow{}, err
				}
				res := sim.StopMeasure()
				nodes := float64(sim.Net.Topo().Nodes())
				cores := float64(len(assign))
				return ProfileRow{
					Benchmark:           prof.Name,
					Suite:               prof.Suite,
					MPKI:                prof.MPKI(),
					IPC:                 res.SystemIPC / cores,
					PacketsPerNodeCycle: float64(res.PacketsDelivered) / float64(res.Cycles) / nodes,
					AvgLatency:          res.AvgLatency,
				}, nil
			},
		})
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

// RunTopology sweeps uniform random over the mesh, torus, and flattened
// butterfly Catnap designs.
//
// Deprecated: use RunExperiment(ctx, "topology", opts).
func RunTopology(sc Scale, loads []float64) []TopologyPoint {
	return mustSweep(RunTopologyCtx(context.Background(), sc, loads, SweepOptions{}))
}

// RunTopologyCtx is RunTopology on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "topology", opts).
func RunTopologyCtx(ctx context.Context, sc Scale, loads []float64, opts SweepOptions) ([]TopologyPoint, error) {
	return runTopology(ctx, ExperimentOpts{Scale: sc, Loads: loads, Sweep: opts})
}

// runTopology is the topology implementation over consolidated options.
func runTopology(ctx context.Context, o ExperimentOpts) ([]TopologyPoint, error) {
	sc := o.Scale.or(DefaultSyntheticScale.Warmup, DefaultSyntheticScale.Measure)
	loads := o.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	var pts []runner.Point[TopologyPoint]
	for _, d := range []string{"4NT-128b-PG", "4NT-128b-PG-torus", "4NT-128b-PG-fbfly"} {
		for _, load := range loads {
			pts = append(pts, runner.Point[TopologyPoint]{
				Label:  pointLabel(d, load),
				Cycles: sc.Warmup + sc.Measure,
				Run: func(ctx context.Context) (TopologyPoint, error) {
					sim, err := newSimCtx(ctx, d, o)
					if err != nil {
						return TopologyPoint{}, err
					}
					res, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), sc.Warmup, sc.Measure)
					if err != nil {
						return TopologyPoint{}, err
					}
					return TopologyPoint{
						Design: d, Offered: load,
						Accepted: res.AcceptedThroughput, Latency: res.AvgLatency,
						PowerW: res.Power.Total, CSCPercent: res.CSCPercent,
					}, nil
				},
			})
		}
	}
	return sweep(ctx, pts, o.Sweep)
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

// RunHetero compares regional vs local-only BFM detection on the
// Heavy-west / Light-east split chip.
//
// Deprecated: use RunExperiment(ctx, "hetero", opts).
func RunHetero(sc Scale) ([]HeteroRow, error) {
	return RunHeteroCtx(context.Background(), sc, SweepOptions{})
}

// RunHeteroCtx is RunHetero on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "hetero", opts).
func RunHeteroCtx(ctx context.Context, sc Scale, opts SweepOptions) ([]HeteroRow, error) {
	return runHetero(ctx, ExperimentOpts{Scale: sc, Sweep: opts})
}

// runHetero is the hetero implementation over consolidated options.
func runHetero(ctx context.Context, o ExperimentOpts) ([]HeteroRow, error) {
	sc := o.Scale.or(DefaultAppScale.Warmup, DefaultAppScale.Measure)
	var pts []runner.Point[HeteroRow]
	for _, localOnly := range []bool{false, true} {
		label := "regional"
		if localOnly {
			label = "local-only"
		}
		pts = append(pts, runner.Point[HeteroRow]{
			Label:  "hetero/" + label,
			Cycles: sc.Warmup + sc.Measure,
			Run: func(ctx context.Context) (HeteroRow, error) {
				cfg, err := Design("4NT-128b-PG")
				if err != nil {
					return HeteroRow{}, err
				}
				cfg.AppTraffic = true
				cfg.LocalOnly = localOnly
				cfg.Name = "4NT-128b-PG-" + label
				sim, err := simForCtx(ctx, o.tuneCfg(cfg))
				if err != nil {
					return HeteroRow{}, err
				}
				if _, err := sim.UseSplitMix("Heavy", "Light"); err != nil {
					return HeteroRow{}, err
				}
				if err := sim.RunCtx(ctx, sc.Warmup); err != nil {
					return HeteroRow{}, err
				}
				sim.StartMeasure()
				if err := sim.RunCtx(ctx, sc.Measure); err != nil {
					return HeteroRow{}, err
				}
				return HeteroRow{Variant: label, Results: sim.StopMeasure()}, nil
			},
		})
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

// RunHeadline computes the headline numbers from the Figure 8/9 matrix.
//
// Deprecated: use RunExperiment(ctx, "headline", opts).
func RunHeadline(sc Scale) (Headline, error) {
	return RunHeadlineCtx(context.Background(), sc, SweepOptions{})
}

// RunHeadlineCtx is RunHeadline with the underlying Figure 8/9 matrix
// executed on the parallel sweep engine.
//
// Deprecated: use RunExperiment(ctx, "headline", opts).
func RunHeadlineCtx(ctx context.Context, sc Scale, opts SweepOptions) (Headline, error) {
	return runHeadline(ctx, ExperimentOpts{Scale: sc, Sweep: opts})
}

// runHeadline is the headline implementation over consolidated options.
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

// Ensure workload is linked for the mix names documented above.
var _ = workload.Mixes
