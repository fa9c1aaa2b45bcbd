package catnap

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/catnap-noc/catnap/internal/power"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/traffic"
	"github.com/catnap-noc/catnap/internal/workload"
)

// This file is the unified experiment API: a registry of every canned
// experiment (one per table/figure of the paper plus the beyond-paper
// studies), each returning a typed result with a ready-to-render table
// and the typed rows behind it (ExperimentResult.Data). RunExperiment is
// the one way to run an experiment; cmd/catnap is a thin shell over it.

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	// Name is the CLI-facing identifier ("fig6", "headline", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Kind classifies the experiment: "figure" and "table" reproduce the
	// paper's evaluation, "summary" derives headline numbers, and
	// "study" goes beyond the paper.
	Kind string
}

// ExperimentOpts parameterizes RunExperiment: one validated options
// struct shared by every experiment, replacing the per-figure parameter
// lists. The zero value selects every experiment's own defaults
// (paper-scale cycle counts, the standard load sweep, uniform-random
// traffic, GOMAXPROCS workers, telemetry off). Experiments ignore the
// fields they have no use for.
type ExperimentOpts struct {
	// Scale overrides the cycle counts; zero fields select the
	// experiment's defaults.
	Scale Scale
	// Loads overrides the offered-load sweep where applicable. Each
	// load is a fraction in (0, 1] packets/node/cycle.
	Loads []float64
	// Pattern selects the traffic pattern for experiments that take one
	// (fig11); empty means uniform-random.
	Pattern string
	// Mixes restricts the application-workload experiments (fig8, fig9)
	// to the named Table 3 mixes; nil means all four.
	Mixes []string
	// Designs restricts the application-workload experiments to the
	// named registered designs; nil means the experiment's own list.
	Designs []string
	// Total is the simulated length of the time-series experiment
	// (fig12) in cycles; 0 means the paper's 3000.
	Total int64
	// Window is the time-series sampling window (fig12) and the
	// telemetry series window, in cycles; 0 means the paper's 50. fig12
	// rejects a window longer than its run.
	Window int64
	// Explore parameterizes the "explore" design-space search (space,
	// budget, sampling mode, cache directory); other experiments ignore
	// it.
	Explore ExploreOpts
	// Sweep configures the parallel engine (worker count, per-point
	// timeout, progress reporting).
	Sweep SweepOptions
	// NoReuse disables per-worker simulator reuse. By default
	// RunExperiment gives each sweep worker a SimPool so consecutive
	// points recycle one simulator via Simulator.Reset instead of
	// rebuilding it; results are bit-identical either way (the reset
	// differential suite asserts it). Set NoReuse to benchmark or debug
	// the fresh-construction path.
	NoReuse bool
	// Telemetry, when non-nil, records cycle-level metrics and events
	// from the experiment's simulations (single-simulation experiments
	// attach a collector; sweeps record point lifecycle events).
	Telemetry *telemetry.Recorder
}

// Validate checks every field, naming the offending field and the valid
// range in the error. RunExperiment calls it; direct users of the
// unexported runners get the same check there.
func (o ExperimentOpts) Validate() error {
	if o.Scale.Warmup < 0 {
		return fmt.Errorf("catnap: ExperimentOpts.Scale.Warmup = %d, want >= 0 cycles", o.Scale.Warmup)
	}
	if o.Scale.Measure < 0 {
		return fmt.Errorf("catnap: ExperimentOpts.Scale.Measure = %d, want >= 0 cycles", o.Scale.Measure)
	}
	for i, l := range o.Loads {
		if !(l > 0 && l <= 1) {
			return fmt.Errorf("catnap: ExperimentOpts.Loads[%d] = %g, want a load in (0, 1] packets/node/cycle", i, l)
		}
	}
	if o.Pattern != "" {
		if _, err := traffic.PatternByName(o.Pattern); err != nil {
			return fmt.Errorf("catnap: ExperimentOpts.Pattern: %w", err)
		}
	}
	for i, m := range o.Mixes {
		if _, err := workload.MixByName(m); err != nil {
			return fmt.Errorf("catnap: ExperimentOpts.Mixes[%d]: %w", i, err)
		}
	}
	for i, d := range o.Designs {
		if _, err := Design(d); err != nil {
			return fmt.Errorf("catnap: ExperimentOpts.Designs[%d]: %w", i, err)
		}
	}
	if o.Total < 0 {
		return fmt.Errorf("catnap: ExperimentOpts.Total = %d, want >= 0 cycles", o.Total)
	}
	if o.Window < 0 {
		return fmt.Errorf("catnap: ExperimentOpts.Window = %d, want >= 0 cycles", o.Window)
	}
	if o.Window > 0 && o.Total > 0 && o.Window > o.Total {
		return fmt.Errorf("catnap: ExperimentOpts.Window = %d, want <= Total (%d cycles)", o.Window, o.Total)
	}
	if err := o.Explore.validate("ExperimentOpts.Explore"); err != nil {
		return err
	}
	if o.Sweep.Jobs < 0 {
		return fmt.Errorf("catnap: ExperimentOpts.Sweep.Jobs = %d, want >= 0 workers (0 = GOMAXPROCS)", o.Sweep.Jobs)
	}
	if o.Sweep.Timeout < 0 {
		return fmt.Errorf("catnap: ExperimentOpts.Sweep.Timeout = %v, want >= 0 (0 = no limit)", o.Sweep.Timeout)
	}
	return nil
}

// withTelemetry returns a copy of o whose sweep progress also feeds the
// telemetry recorder's event log.
func (o ExperimentOpts) withTelemetry() ExperimentOpts {
	if o.Telemetry != nil {
		o.Sweep.Progress = runner.Tee(o.Sweep.Progress, o.Telemetry.Progress())
	}
	return o
}

// ExperimentResult is one experiment's outcome: the typed rows plus a
// rendered table.
type ExperimentResult struct {
	// Name echoes the experiment.
	Name string
	// Header and Rows are the rendered table (cmd/catnap prints them as
	// aligned text or CSV).
	Header []string
	Rows   [][]string
	// Note is the paper-comparison footnote, if any.
	Note string
	// Data holds the typed rows the table was rendered from
	// ([]Fig6Point, []AppRow, Headline, ...).
	Data any
}

// experiment pairs the registry metadata with its run function.
type experiment struct {
	info ExperimentInfo
	run  func(ctx context.Context, opts ExperimentOpts) (*ExperimentResult, error)
}

// experimentList is ordered as the paper presents the evaluation,
// beyond-paper studies last.
var experimentList []experiment

func registerExperiment(info ExperimentInfo, run func(context.Context, ExperimentOpts) (*ExperimentResult, error)) {
	experimentList = append(experimentList, experiment{info: info, run: run})
}

// Experiments lists the registered experiments in presentation order.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, len(experimentList))
	for i, e := range experimentList {
		out[i] = e.info
	}
	return out
}

// ExperimentNames lists the registered experiment names in order.
func ExperimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.info.Name
	}
	return names
}

// RunExperiment executes the named experiment. Options are validated up
// front (the error names the offending field); unknown names error with
// the valid choices; cancellation of ctx stops the underlying sweep
// between simulated cycles. When opts.Telemetry is set, sweep lifecycle
// events and (for experiments that instrument a simulation) cycle-level
// metrics land in the recorder.
func RunExperiment(ctx context.Context, name string, opts ExperimentOpts) (*ExperimentResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withTelemetry()
	if !opts.NoReuse && opts.Sweep.WorkerState == nil {
		// Default: each sweep worker owns a SimPool, so consecutive points
		// reset one simulator in place instead of rebuilding it.
		opts.Sweep.WorkerState = func() any { return NewSimPool() }
	}
	for _, e := range experimentList {
		if e.info.Name == name {
			return e.run(ctx, opts)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(ExperimentNames(), " "))
}

// registerTable registers an experiment whose table has one row per
// element run returns, rendered by cells; the elements are the result's
// Data. Each result gets its own copy of header.
func registerTable[T any](info ExperimentInfo, note string, header []string, run func(context.Context, ExperimentOpts) ([]T, error), cells func(T) []string) {
	registerExperiment(info, func(ctx context.Context, opts ExperimentOpts) (*ExperimentResult, error) {
		rows, err := run(ctx, opts)
		if err != nil {
			return nil, err
		}
		res := &ExperimentResult{Name: info.Name, Header: slices.Clone(header), Note: note, Data: rows}
		for _, r := range rows {
			res.Rows = append(res.Rows, cells(r))
		}
		return res, nil
	})
}

// fcell formats one numeric table cell.
func fcell(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

func init() {
	registerTable(ExperimentInfo{"fig2", "performance of 128b vs 512b Single-NoC on Light/Heavy workloads", "figure"},
		"paper: Heavy loses ~41% on the under-provisioned 128-bit Single-NoC; Light barely changes",
		[]string{"workload", "design", "system IPC", "normalized"}, runFig2,
		func(r Fig2Row) []string {
			return []string{r.Workload, r.Design, fcell(r.SystemIPC, 1), fcell(r.Normalized, 3)}
		})

	registerTable(ExperimentInfo{"table2", "router width -> frequency/voltage pairs", "table"},
		"paper Table 2: 512b{2.0GHz@0.750V, 1.4GHz@0.625V}  128b{2.9GHz@0.750V, 2.0GHz@0.625V}",
		[]string{"design", "router width (bits)", "frequency (GHz)", "voltage (V)"}, runTable2,
		func(r power.Table2Row) []string {
			return []string{r.Design, fmt.Sprint(r.WidthBits), fcell(r.FreqGHz, 1), fcell(r.VoltV, 3)}
		})

	registerTable(ExperimentInfo{"fig6", "throughput & latency of 1/2/4/8-subnet designs (uniform random)", "figure"},
		"paper: >4 subnets loses throughput; latency grows a few cycles per halving of width",
		[]string{"design", "offered", "accepted (pkts/node/cyc)", "avg latency (cyc)"}, runFig6,
		func(p Fig6Point) []string {
			return []string{p.Design, fcell(p.Offered, 2), fcell(p.Accepted, 3), fcell(p.Latency, 1)}
		})

	registerTable(ExperimentInfo{"fig7", "analytic network power breakdown at near saturation", "figure"},
		"paper Fig 7: Single-NoC ~70W; voltage-scaled Multi-NoC substantially lower",
		[]string{"config", "NI", "link", "clock", "control", "crossbar", "buffer", "static", "total (W)"}, runFig7,
		func(r Fig7Row) []string {
			b := r.Breakdown
			return []string{
				r.Label, fcell(b.NI, 1), fcell(b.Link, 1), fcell(b.Clock, 1), fcell(b.Control, 1),
				fcell(b.Crossbar, 1), fcell(b.Buffer, 1), fcell(b.Static, 1), fcell(b.Total, 1),
			}
		})

	registerTable(ExperimentInfo{"fig8", "network power and normalized performance, app workloads", "figure"},
		"paper Fig 8: Multi-NoC-PG ~20W avg vs Single-NoC ~36W; ~5% avg performance cost",
		[]string{"workload", "design", "dynamic (W)", "static (W)", "total (W)", "norm. perf"}, runAppWorkloads,
		func(r AppRow) []string {
			return []string{
				r.Workload, r.Design,
				fcell(r.Results.Power.Dynamic, 1), fcell(r.Results.Power.Static, 1), fcell(r.Results.Power.Total, 1),
				fcell(r.NormalizedPerf, 3),
			}
		})

	registerTable(ExperimentInfo{"fig9", "compensated sleep cycles, app workloads", "figure"},
		"paper Fig 9: ~70% CSC for Multi-NoC-PG on Light; negligible for Single-NoC-PG",
		[]string{"workload", "design", "CSC (%)"}, runAppWorkloads,
		func(r AppRow) []string { return []string{r.Workload, r.Design, fcell(r.Results.CSCPercent, 1)} })

	registerTable(ExperimentInfo{"fig10", "power/CSC/throughput/latency vs offered load, with/without PG", "figure"},
		"paper Fig 10: at 0.03 load Multi-NoC-PG 7.8W/74% CSC vs Single-NoC-PG 24.1W/10% CSC",
		[]string{"design", "offered", "power (W)", "CSC (%)", "accepted", "latency (cyc)"}, runFig10,
		func(p Fig10Point) []string {
			return []string{p.Design, fcell(p.Offered, 2), fcell(p.PowerW, 1), fcell(p.CSCPercent, 1), fcell(p.Accepted, 3), fcell(p.Latency, 1)}
		})

	registerTable(ExperimentInfo{"fig11", "congestion-metric policy comparison (takes a traffic pattern)", "figure"},
		"paper Fig 11: BFM and Delay win; RR has much higher latency; BFA/IQOcc lose throughput",
		[]string{"policy", "offered", "accepted", "latency (cyc)", "CSC (%)"}, runFig11,
		func(p Fig11Point) []string {
			return []string{p.Policy, fcell(p.Offered, 2), fcell(p.Accepted, 3), fcell(p.Latency, 1), fcell(p.CSCPercent, 1)}
		})

	registerTable(ExperimentInfo{"fig12", "bursty-traffic ramp-up and subnet utilization over time", "figure"},
		"paper Fig 12: accepted catches offered within ~200 cycles; burst1 opens all subnets, burst2 only two",
		[]string{"cycle", "offered", "accepted", "subnet0", "subnet1", "subnet2", "subnet3"}, runFig12,
		func(p Fig12Point) []string {
			row := []string{fmt.Sprint(p.Cycle), fcell(p.Offered, 3), fcell(p.Accepted, 3)}
			for _, s := range p.SubnetShare {
				row = append(row, fcell(s, 2))
			}
			return row
		})

	registerTable(ExperimentInfo{"fig13", "injection-rate threshold sweep (uniform random + transpose)", "figure"},
		"paper Fig 13: UR tolerates thresholds up to 0.20; transpose needs <=0.08 — no single threshold works",
		[]string{"pattern", "IR threshold", "offered", "accepted", "latency (cyc)"}, runFig13,
		func(p Fig13Point) []string {
			return []string{p.Pattern, fcell(p.Threshold, 2), fcell(p.Offered, 2), fcell(p.Accepted, 3), fcell(p.Latency, 1)}
		})

	registerTable(ExperimentInfo{"fig14", "64-core study: CSC and latency", "figure"},
		"paper Fig 14: 64-core Multi-NoC reaches ~50% CSC at low load vs ~17% for Single-NoC",
		[]string{"design", "offered", "CSC (%)", "latency (cyc)", "accepted"}, runFig14,
		func(p Fig14Point) []string {
			return []string{p.Design, fcell(p.Offered, 2), fcell(p.CSCPercent, 1), fcell(p.Latency, 1), fcell(p.Accepted, 3)}
		})

	registerExperiment(ExperimentInfo{"headline", "the paper's headline: 44% power saving at ~5% performance cost", "summary"},
		func(ctx context.Context, opts ExperimentOpts) (*ExperimentResult, error) {
			h, err := runHeadline(ctx, opts)
			if err != nil {
				return nil, err
			}
			return &ExperimentResult{
				Name:   "headline",
				Header: []string{"quantity", "measured", "paper"},
				Rows: [][]string{
					{"Single-NoC (1NT-512b) average network power (W)", fcell(h.SingleAvgPowerW, 1), "~36"},
					{"Catnap Multi-NoC (4NT-128b-PG) average power (W)", fcell(h.MultiPGAvgPowerW, 1), "~20"},
					{"Network power reduction (%)", fcell(h.PowerReduction*100, 1), "~44"},
					{"Average performance cost (%)", fcell(h.AvgPerfCost*100, 1), "~5"},
					{"Compensated sleep cycles on Light (%)", fcell(h.LightCSCPercent, 1), "~70"},
				},
				Data: h,
			}, nil
		})

	registerTable(ExperimentInfo{"profiles", "per-benchmark characterization of all 35 application profiles", "study"}, "",
		[]string{"benchmark", "suite", "MPKI", "IPC/core", "pkts/node/cyc", "latency"}, runProfiles,
		func(r ProfileRow) []string {
			return []string{r.Benchmark, r.Suite, fcell(r.MPKI, 1), fcell(r.IPC, 2), fcell(r.PacketsPerNodeCycle, 3), fcell(r.AvgLatency, 1)}
		})

	registerTable(ExperimentInfo{"hetero", "Heavy-west/Light-east split chip: regional vs local detection", "study"},
		"§3.2.1's motivation: with non-uniform placement, regional detection reacts before local back-pressure does",
		[]string{"detection", "avg latency", "p99", "system IPC", "power (W)", "CSC (%)"}, runHetero,
		func(r HeteroRow) []string {
			return []string{
				r.Variant, fcell(r.Results.AvgLatency, 1), fcell(r.Results.P99Latency, 0),
				fcell(r.Results.SystemIPC, 1), fcell(r.Results.Power.Total, 1), fcell(r.Results.CSCPercent, 1),
			}
		})

	registerTable(ExperimentInfo{"topology", "Catnap on mesh vs torus vs flattened butterfly (§8 future work)", "study"},
		"§8 future work: the Catnap benefits carry over to the torus and flattened butterfly",
		[]string{"design", "offered", "accepted", "latency (cyc)", "power (W)", "CSC (%)"}, runTopology,
		func(p TopologyPoint) []string {
			return []string{p.Design, fcell(p.Offered, 2), fcell(p.Accepted, 3), fcell(p.Latency, 1), fcell(p.PowerW, 1), fcell(p.CSCPercent, 1)}
		})

	// The studies defined in other files register here, last, so the
	// registry order does not depend on the order Go runs each file's
	// init.
	registerExplore()
	registerAblations()
}
