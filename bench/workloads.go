package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/explore"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// workload is one benchmark input set. Each builds a sweep from the seed;
// tiny selects the test-only size that runs in milliseconds. Full sizes
// make one sweep take about 2 s with two workers on a 2-core host, so a
// run measures several sweeps and reports their median.
type workload struct {
	name  string
	build func(seed uint64, tiny bool) sweep
}

// workloads is the benchmark's workload table, in BENCHMARK.json order;
// BENCHMARK.json and README.md give the reason for each.
var workloads = []workload{
	{"sat-sweep", satSweep},
	{"lowload-reps", lowloadReps},
	{"app-mixes", appMixes},
	{"explore-campaign", exploreCampaign},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v or all)", name, names)
}

// sweep is one pass over a workload's points.
type sweep interface {
	// run executes the sweep once.
	run(ctx context.Context, o runOpts) (*sweepResult, error)
	// first provisions the sweep's first point and simulates one cycle:
	// the set-up a user pays before the first simulated cycle.
	first() error
}

// runOpts selects how a sweep executes.
type runOpts struct {
	jobs int
	// fresh builds every point's simulator with catnap.New instead of
	// resetting a per-worker SimPool; the reference sweep uses it to
	// cross-check reuse against construction.
	fresh bool
	// traced times every layer call; spans also keeps per-point spans,
	// numbered by traceIDs across the run's sweeps from epoch on.
	traced, spans bool
	traceIDs      *atomic.Int64
	epoch         time.Time
}

// sweepResult is one sweep's outcome.
type sweepResult struct {
	wall time.Duration
	// records holds each grid point's canonical Results JSON in point
	// order, or the explore campaign's cold front bytes.
	records [][]byte
	// points and cycles count the points evaluated and the cycles they
	// simulated (warmup plus measured, skipped cycles included).
	points, cycles int64
	// failed counts points that errored, panicked or timed out.
	failed int64
	// rows holds the typed grid records for the model metrics.
	rows []record

	// Filled by traced sweeps only.
	layers     layerStats
	pointWalls []time.Duration
	spans      []span

	// Explore only: the warm rerun's wall, its cache hit fraction, and
	// the front size.
	rerun        time.Duration
	cacheHitFrac float64
	frontSize    int
}

// pointSeed is the simulation seed of replica rep under the run's seed;
// replicas use consecutive seeds.
func pointSeed(seed uint64, rep int) uint64 { return seed*1000 + uint64(rep) + 1 }

func design(name string) catnap.Config {
	cfg, err := catnap.Design(name)
	if err != nil {
		panic(err) // the tables below name registered designs only
	}
	return cfg
}

// gridPoint is one independent simulation: uniform-random traffic at
// Load, or the closed-loop core model running Mix when Mix is set.
type gridPoint struct {
	cfg             catnap.Config
	load            float64
	mix             string
	warmup, measure int64
}

func (p gridPoint) label() string {
	if p.mix != "" {
		return p.mix + "/" + p.cfg.Name
	}
	return fmt.Sprintf("%s@%g#%d", p.cfg.Name, p.load, p.cfg.Seed)
}

// record is a grid point's canonical output, hashed for the digest.
type record struct {
	Design  string         `json:"design"`
	Mix     string         `json:"mix,omitempty"`
	Load    float64        `json:"load"`
	Seed    uint64         `json:"seed"`
	Results catnap.Results `json:"results"`
}

// grid is a sweep over independent points.
type grid []gridPoint

func satSweep(seed uint64, tiny bool) sweep {
	warmup, measure := int64(400), int64(1600)
	if tiny {
		warmup, measure = 30, 120
	}
	var g grid
	for _, d := range []string{"1NT-512b", "2NT-256b", "4NT-128b-PG", "8NT-64b"} {
		for _, load := range []float64{0.30, 0.45} {
			cfg := design(d)
			cfg.Seed = pointSeed(seed, 0)
			g = append(g, gridPoint{cfg: cfg, load: load, warmup: warmup, measure: measure})
		}
	}
	return g
}

func lowloadReps(seed uint64, tiny bool) sweep {
	warmup, measure, reps := int64(100), int64(500), 64
	if tiny {
		warmup, measure, reps = 50, 100, 2
	}
	designs := []string{"1NT-512b", "1NT-512b-PG", "2NT-256b", "4NT-128b", "4NT-128b-PG", "8NT-64b", "64c-1NT-256b-PG", "64c-2NT-128b-PG"}
	var g grid
	for _, d := range designs {
		for _, load := range []float64{0, 0.001, 0.004, 0.01} {
			for rep := range reps {
				cfg := design(d)
				cfg.Seed = pointSeed(seed, rep)
				g = append(g, gridPoint{cfg: cfg, load: load, warmup: warmup, measure: measure})
			}
		}
	}
	return g
}

func appMixes(seed uint64, tiny bool) sweep {
	warmup, measure := int64(800), int64(3200)
	if tiny {
		warmup, measure = 50, 150
	}
	var g grid
	for _, mix := range catnap.AppWorkloadNames {
		for _, d := range catnap.Fig8Designs {
			cfg := design(d)
			cfg.AppTraffic = true
			cfg.Seed = pointSeed(seed, 0)
			g = append(g, gridPoint{cfg: cfg, mix: mix, warmup: warmup, measure: measure})
		}
	}
	return g
}

func (g grid) first() error {
	p := g[0]
	sim, err := catnap.NewSimPool().Get(p.cfg)
	if err != nil {
		return err
	}
	if p.mix != "" {
		if _, err := sim.UseMix(p.mix); err != nil {
			return err
		}
	} else {
		sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(p.load), 0)
	}
	sim.Run(1)
	return nil
}

func (g grid) run(ctx context.Context, o runOpts) (*sweepResult, error) {
	st := newSweepState(o)
	pts := make([]runner.Point[record], len(g))
	for i, p := range g {
		pts[i] = runner.Point[record]{
			Label:  p.label(),
			Cycles: p.warmup + p.measure,
			Run: func(ctx context.Context) (record, error) {
				w := runner.WorkerState(ctx).(*worker)
				res, err := w.simulate(ctx, p.label(), p.cfg, p.load, p.mix, p.warmup, p.measure)
				return record{Design: p.cfg.Name, Mix: p.mix, Load: p.load, Seed: p.cfg.Seed, Results: res}, err
			},
		}
	}
	start := time.Now()
	out, err := runner.Run(ctx, pts, runner.Options{Jobs: o.jobs, WorkerState: st.newWorker, Progress: st})
	r := &sweepResult{wall: time.Since(start)}
	if err != nil {
		return nil, err
	}
	for _, oc := range out {
		var b []byte
		if oc.Err == nil {
			b, oc.Err = json.Marshal(oc.Value)
		}
		if oc.Err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "catnapbench: point %d (%s): %v\n", oc.Index, oc.Label, oc.Err)
		}
		r.records = append(r.records, b)
		r.rows = append(r.rows, oc.Value)
		r.points++
		r.cycles += oc.Cycles
	}
	st.collect(r)
	return r, nil
}

// campaignLoad is the offered load every campaign point is evaluated at.
const campaignLoad = 0.10

// campaignSampleSeed fixes the sampler so every seed's campaign visits a
// comparable mix of shapes: a campaign's cost depends on which shapes it
// samples, and the run's seed varies the simulations instead.
const campaignSampleSeed = 1

// campaign is an explore search over the default 1296-point space, run
// cold in a fresh on-disk cache and then rerun warm with identical
// options.
type campaign struct {
	budget          int64
	batch           int
	warmup, measure int64
	simSeed         uint64
}

func exploreCampaign(seed uint64, tiny bool) sweep {
	if tiny {
		return campaign{budget: 8, batch: 4, warmup: 50, measure: 150, simSeed: seed}
	}
	return campaign{budget: 64, batch: 16, warmup: 200, measure: 800, simSeed: seed}
}

func (c campaign) first() error {
	dir, err := os.MkdirTemp("", "catnapbench-explore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := explore.OpenCache(dir)
	if err != nil {
		return err
	}
	defer cache.Close()
	spec := explore.DefaultSpace().SpecAt(0, c.eval())
	cfg, err := specConfig(spec)
	if err != nil {
		return err
	}
	return grid{{cfg: cfg, load: spec.Load}}.first()
}

func (c campaign) eval() explore.EvalParams {
	return explore.EvalParams{Load: campaignLoad, Warmup: c.warmup, Measure: c.measure, Seed: c.simSeed}
}

// libraryRun runs the campaign through catnap.RunExplore, the path users
// take, and returns its front bytes.
func (c campaign) libraryRun(ctx context.Context, dir string, o runOpts) ([]byte, *catnap.ExploreResult, error) {
	res, err := catnap.RunExplore(ctx, catnap.ExperimentOpts{
		Scale: catnap.Scale{Warmup: c.warmup, Measure: c.measure},
		Explore: catnap.ExploreOpts{
			Load: campaignLoad, Budget: c.budget, Batch: c.batch,
			SampleSeed: campaignSampleSeed, SimSeed: c.simSeed, CacheDir: dir,
		},
		Sweep:   catnap.SweepOptions{Jobs: o.jobs},
		NoReuse: o.fresh,
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteFront(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), res, nil
}

// tracedRun runs the same campaign on the explore engine with the
// benchmark's traced evaluator, which must reproduce RunExplore's front
// byte for byte.
func (c campaign) tracedRun(ctx context.Context, dir string, st *sweepState) ([]byte, *catnap.ExploreResult, error) {
	sp, eval := explore.DefaultSpace(), c.eval()
	res, err := explore.Run(ctx, tracedEvaluator, explore.Options{
		Space: sp, Eval: eval, Budget: c.budget, Batch: c.batch, Seed: campaignSampleSeed,
		CacheDir: dir, Jobs: st.o.jobs, Progress: st, WorkerState: st.newWorker,
	})
	if err != nil {
		return nil, nil, err
	}
	r := &catnap.ExploreResult{Front: res.Front, Space: sp, Eval: eval, Proposed: res.Proposed, Failures: res.Failures, Cache: res.Cache}
	var buf bytes.Buffer
	if err := r.WriteFront(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), r, nil
}

func (c campaign) run(ctx context.Context, o runOpts) (*sweepResult, error) {
	dir, err := os.MkdirTemp("", "catnapbench-explore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := newSweepState(o)
	once := func(st *sweepState) ([]byte, *catnap.ExploreResult, error) {
		if o.traced {
			return c.tracedRun(ctx, dir, st)
		}
		return c.libraryRun(ctx, dir, o)
	}

	start := time.Now()
	cold, res, err := once(st)
	if err != nil {
		return nil, err
	}
	r := &sweepResult{
		wall:      time.Since(start),
		records:   [][]byte{cold},
		points:    res.Proposed,
		cycles:    res.Proposed * (c.warmup + c.measure),
		failed:    res.Failures,
		frontSize: res.Front.Len(),
	}
	st.collect(r)

	start = time.Now()
	warm, wres, err := once(newSweepState(o))
	if err != nil {
		return nil, err
	}
	r.rerun = time.Since(start)
	r.wall += r.rerun
	if lookups := wres.Cache.Hits + wres.Cache.Misses; lookups > 0 {
		r.cacheHitFrac = float64(wres.Cache.Hits) / float64(lookups)
	}
	if !bytes.Equal(warm, cold) || wres.Cache.Misses != 0 {
		fmt.Fprintf(os.Stderr, "catnapbench: warm rerun differs from the cold campaign (%d cache misses)\n", wres.Cache.Misses)
		r.failed = r.points
	}
	return r, nil
}

// specConfig lowers an explore spec to a simulator config exactly as the
// library's explore evaluator does.
func specConfig(spec explore.Spec) (catnap.Config, error) {
	kind, err := congestion.KindByName(spec.Metric)
	if err != nil {
		return catnap.Config{}, err
	}
	cfg := catnap.BaseConfig()
	cfg.Name = fmt.Sprintf("%dNT-%db-vc%d-ti%d-%s", spec.Subnets, spec.WidthBits, spec.VCDepth, spec.TIdle, spec.Metric)
	cfg.Subnets = spec.Subnets
	cfg.LinkWidthBits = spec.WidthBits
	cfg.VCDepth = spec.VCDepth
	cfg.TIdleDetect = spec.TIdle
	cfg.Selector = catnap.SelectorCatnap
	cfg.Gating = catnap.GatingCatnap
	cfg.Metric = kind
	cfg.MetricThreshold = spec.Threshold
	cfg.Seed = spec.Seed
	return cfg, nil
}

// tracedEvaluator is the explore evaluator on the traced point path.
func tracedEvaluator(ctx context.Context, spec explore.Spec) (explore.Sample, error) {
	cfg, err := specConfig(spec)
	if err != nil {
		return explore.Sample{}, err
	}
	w := runner.WorkerState(ctx).(*worker)
	res, err := w.simulate(ctx, cfg.Name, cfg, spec.Load, "", spec.Warmup, spec.Measure)
	if err != nil {
		return explore.Sample{}, err
	}
	return explore.Sample{
		PowerW: res.Power.Total, Latency: res.AvgLatency,
		Accepted: res.AcceptedThroughput, CSCPercent: res.CSCPercent,
	}, nil
}
