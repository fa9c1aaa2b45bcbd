package catnap

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/explore"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// This file binds the internal/explore design-space search engine to the
// Catnap simulator: ExploreOpts carries the campaign knobs through
// ExperimentOpts, evaluateSpec lowers an explore.Spec to a Config
// and measures it, and the "explore" registry entry renders the Pareto
// front as an experiment table for RunExperiment callers. The catnap
// explore command is the command-line shell (persistent cache, resume
// by rerun, frontier output) over RunExplore.

// ExploreSpace is the searched configuration grid; see explore.Space for
// the axis semantics.
type ExploreSpace = explore.Space

// ExploreFront is an explore campaign's Pareto front.
type ExploreFront = explore.Front

// ExploreCacheStats are an explore campaign's result-cache counters.
type ExploreCacheStats = explore.CacheStats

// ExploreOpts parameterizes the "explore" experiment: the design-space
// search over (subnets, link width, buffer depth, idle-detect window,
// congestion metric, gating threshold) for the power/latency Pareto
// front. The zero value searches the default space adaptively at load
// 0.10 with an in-memory cache, so a cancelled campaign restarts from
// zero; set CacheDir to make it resumable.
type ExploreOpts struct {
	// Space is the searched grid; zero-valued axes fall back to the
	// defaults (explore.DefaultSpace) axis by axis.
	Space ExploreSpace
	// Load is the offered load every point is evaluated at, in
	// packets/node/cycle; 0 selects 0.10.
	Load float64
	// Budget caps the number of points evaluated; <= 0 means the whole
	// space.
	Budget int64
	// Batch is the number of points proposed per sampling round; 0
	// selects the engine default of 64.
	Batch int
	// Grid enumerates the space in order instead of sampling adaptively.
	Grid bool
	// ExploreFrac is the random-exploration fraction of each adaptive
	// batch, in [0, 1]; 0 selects the default 0.25.
	ExploreFrac float64
	// MinAccepted is the feasibility floor as a fraction of the offered
	// load, in [0, 1]; 0 selects the default 0.9.
	MinAccepted float64
	// SampleSeed drives the sampling RNG; 0 selects 1. SimSeed is the
	// seed every point's simulation runs with (part of each point's
	// cache key); 0 selects 1. They are independent so a re-sampled
	// campaign can still share cached simulations.
	SampleSeed uint64
	SimSeed    uint64
	// CacheDir is the on-disk result cache; "" keeps results in memory.
	// Rerunning a cancelled campaign with the same options and CacheDir
	// resumes it: committed rounds replay as cache hits.
	CacheDir string
}

// validate checks the explore knobs with ExperimentOpts.Validate's
// field-naming convention; prefix is "ExperimentOpts.Explore".
func (o ExploreOpts) validate(prefix string) error {
	sp := o.effectiveSpace()
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("catnap: %s.Space: %w", prefix, err)
	}
	for _, m := range sp.Metrics {
		if _, err := congestion.KindByName(m); err != nil {
			return fmt.Errorf("catnap: %s.Space.Metrics: %w", prefix, err)
		}
	}
	if !(o.Load >= 0 && o.Load <= 1) {
		return fmt.Errorf("catnap: %s.Load = %g, want a load in (0, 1] packets/node/cycle (0 = default 0.10)", prefix, o.Load)
	}
	if o.Batch < 0 {
		return fmt.Errorf("catnap: %s.Batch = %d, want >= 0 points (0 = default)", prefix, o.Batch)
	}
	if !(o.ExploreFrac >= 0 && o.ExploreFrac <= 1) {
		return fmt.Errorf("catnap: %s.ExploreFrac = %g, want in [0, 1] (0 = default 0.25)", prefix, o.ExploreFrac)
	}
	if !(o.MinAccepted >= 0 && o.MinAccepted <= 1) {
		return fmt.Errorf("catnap: %s.MinAccepted = %g, want in [0, 1] of offered load (0 = default 0.9)", prefix, o.MinAccepted)
	}
	return nil
}

// effectiveSpace fills zero-valued axes from the default space.
func (o ExploreOpts) effectiveSpace() ExploreSpace {
	sp, def := o.Space, explore.DefaultSpace()
	if len(sp.Subnets) == 0 {
		sp.Subnets = def.Subnets
	}
	if len(sp.Widths) == 0 {
		sp.Widths = def.Widths
	}
	if len(sp.VCDepths) == 0 {
		sp.VCDepths = def.VCDepths
	}
	if len(sp.TIdles) == 0 {
		sp.TIdles = def.TIdles
	}
	if len(sp.Metrics) == 0 {
		sp.Metrics = def.Metrics
	}
	if len(sp.Thresholds) == 0 {
		sp.Thresholds = def.Thresholds
	}
	return sp
}

// ExploreResult is the "explore" experiment's typed outcome: the final
// front with enough context to materialize and serialize it.
type ExploreResult struct {
	// Front is the final Pareto front (power ascending).
	Front *ExploreFront
	// Space and Eval reproduce each front member's full specification
	// from its index.
	Space ExploreSpace
	Eval  explore.EvalParams
	// SpaceSize, Proposed, Evaluated, Infeasible, Failures, and Rounds
	// summarize the campaign (see explore.Result).
	SpaceSize  int64
	Proposed   int64
	Evaluated  int64
	Infeasible int64
	Failures   int64
	Rounds     int
	// Cache holds the result-cache hit/miss counters.
	Cache ExploreCacheStats
}

// WriteFront writes the frontier's deterministic JSON serialization:
// identical campaigns produce byte-identical output regardless of worker
// count, cache state, or kill-and-rerun history.
func (r *ExploreResult) WriteFront(w io.Writer) error {
	return r.Front.WriteTo(w, r.Space, r.Eval)
}

// FrontSpec materializes the full specification of front member p.
func (r *ExploreResult) FrontSpec(p explore.Point) explore.Spec {
	return r.Space.SpecAt(p.Index, r.Eval)
}

// evaluateSpec is the production evaluator: lower the spec to a
// Config (Catnap selection and gating over the spec's provisioning and
// detection knobs), simulate uniform-random traffic at the spec's load,
// and report the power/latency objectives.
func evaluateSpec(ctx context.Context, spec explore.Spec) (explore.Sample, error) {
	kind, err := congestion.KindByName(spec.Metric)
	if err != nil {
		return explore.Sample{}, err
	}
	cfg := BaseConfig()
	cfg.Name = fmt.Sprintf("%dNT-%db-vc%d-ti%d-%s", spec.Subnets, spec.WidthBits, spec.VCDepth, spec.TIdle, spec.Metric)
	cfg.Subnets = spec.Subnets
	cfg.LinkWidthBits = spec.WidthBits
	cfg.VCDepth = spec.VCDepth
	cfg.TIdleDetect = spec.TIdle
	cfg.Selector = SelectorCatnap
	cfg.Gating = GatingCatnap
	cfg.Metric = kind
	cfg.MetricThreshold = spec.Threshold
	cfg.Seed = spec.Seed
	sim, err := simForCtx(ctx, cfg)
	if err != nil {
		return explore.Sample{}, err
	}
	res, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(spec.Load), spec.Warmup, spec.Measure)
	if err != nil {
		return explore.Sample{}, err
	}
	return explore.Sample{
		PowerW:     res.Power.Total,
		Latency:    res.AvgLatency,
		Accepted:   res.AcceptedThroughput,
		CSCPercent: res.CSCPercent,
	}, nil
}

// exploreOptions lowers the experiment options to the engine's.
func exploreOptions(o ExperimentOpts) explore.Options {
	e := o.Explore
	load := e.Load
	if load == 0 {
		load = 0.10
	}
	sampleSeed := e.SampleSeed
	if sampleSeed == 0 {
		sampleSeed = 1
	}
	simSeed := e.SimSeed
	if simSeed == 0 {
		simSeed = 1
	}
	sc := o.Scale.or(DefaultExploreScale.Warmup, DefaultExploreScale.Measure)
	return explore.Options{
		Space: e.effectiveSpace(),
		Eval: explore.EvalParams{
			Load: load, Warmup: sc.Warmup, Measure: sc.Measure, Seed: simSeed,
		},
		Budget: e.Budget, Batch: e.Batch, Grid: e.Grid,
		ExploreFrac: e.ExploreFrac, MinAccepted: e.MinAccepted,
		Seed: sampleSeed, CacheDir: e.CacheDir,
		Jobs: o.Sweep.Jobs, Timeout: o.Sweep.Timeout, Progress: o.Sweep.Progress,
		WorkerState: o.Sweep.WorkerState,
	}
}

// DefaultExploreScale is the per-point simulation length of the explore
// experiment: shorter than the figure defaults because a campaign runs
// hundreds to thousands of points.
var DefaultExploreScale = Scale{Warmup: 1000, Measure: 4000}

// RunExplore executes a design-space exploration campaign with the
// production evaluator. Cancellation of ctx stops the campaign between
// simulated cycles; with a CacheDir set, a later call with the same
// options resumes it from the cache and finishes with the same front as
// an uninterrupted run.
func RunExplore(ctx context.Context, o ExperimentOpts) (*ExploreResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if !o.NoReuse && o.Sweep.WorkerState == nil {
		// Same default as RunExperiment: a per-worker SimPool so repeated
		// evaluations recycle one simulator across the campaign.
		o.Sweep.WorkerState = func() any { return NewSimPool() }
	}
	eopts := exploreOptions(o)
	res, err := explore.Run(ctx, evaluateSpec, eopts)
	if err != nil {
		return nil, err
	}
	return &ExploreResult{
		Front: res.Front, Space: eopts.Space, Eval: eopts.Eval,
		SpaceSize: res.SpaceSize, Proposed: res.Proposed, Evaluated: res.Evaluated,
		Infeasible: res.Infeasible, Failures: res.Failures, Rounds: res.Rounds,
		Cache: res.Cache,
	}, nil
}

// registerExplore registers the "explore" experiment.
func registerExplore() {
	registerExperiment(ExperimentInfo{"explore", "Pareto-front search over the Catnap design space (cached, adaptive)", "study"},
		func(ctx context.Context, opts ExperimentOpts) (*ExperimentResult, error) {
			start := time.Now()
			r, err := RunExplore(ctx, opts)
			if err != nil {
				return nil, err
			}
			res := &ExperimentResult{
				Name:   "explore",
				Header: []string{"subnets", "width", "vcdepth", "tidle", "metric", "threshold", "power (W)", "latency (cyc)", "accepted", "CSC (%)"},
				Note: fmt.Sprintf("%d-point front from %d/%d points in %d rounds (%v); cache: %d hits, %d misses (%.0f%% hit rate)",
					r.Front.Len(), r.Proposed, r.SpaceSize, r.Rounds, time.Since(start).Round(time.Millisecond),
					r.Cache.Hits, r.Cache.Misses, r.Cache.HitRate()),
				Data: r,
			}
			for _, p := range r.Front.Points() {
				s := r.FrontSpec(p)
				res.Rows = append(res.Rows, []string{
					fmt.Sprint(s.Subnets), fmt.Sprint(s.WidthBits), fmt.Sprint(s.VCDepth), fmt.Sprint(s.TIdle),
					s.Metric, fmt.Sprintf("%g", s.Threshold),
					fcell(p.PowerW, 2), fcell(p.Latency, 1), fcell(p.Accepted, 3), fcell(p.CSCPercent, 1),
				})
			}
			return res, nil
		})
}
