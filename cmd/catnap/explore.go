package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	catnap "github.com/catnap-noc/catnap"
)

// exploreCommand searches the Catnap design space — subnet count, link
// width, buffer depth, idle-detect window, congestion metric, gating
// threshold — for the power/latency Pareto front.
//
// Two layers make campaigns cheap to repeat, kill, and scale:
//
//   - -cache DIR persists every evaluated point content-addressed by its
//     canonical spec hash (append-only JSONL shards); re-running a
//     campaign, or a different campaign overlapping the same points,
//     costs map lookups instead of simulations. The end-of-run summary
//     reports hits/misses. The cache is also how a killed campaign
//     (Ctrl-C, OOM, machine loss) resumes: rerun it with the same flags
//     and the same -cache directory, and it replays every committed
//     round as cache hits and finishes with a frontier byte-identical
//     to an uninterrupted run. A rerun with a larger -budget replays
//     the points it shares with the smaller run from the cache.
//   - Adaptive sampling (the default) steers each batch toward ±1-step
//     neighbors of current frontier members, spending -budget where the
//     front actually is; -grid enumerates the space in order instead,
//     as the exhaustive baseline.
//
// Axis flags (-subnets, -widths, -vcdepths, -tidles, -metrics,
// -thresholds) take comma-separated value lists and default to the
// built-in ~1.3k-point space. Points evaluate in parallel (-jobs) with
// event-driven idle fast-forward on; the frontier table goes to stdout
// and -front-out writes its deterministic JSON form. A 200-point
// adaptive campaign, cached and so resumable:
//
//	catnap explore -budget 200 -cache .explore/cache
func exploreCommand(a *app, fs *flag.FlagSet) func([]string) error {
	subnets := fs.String("subnets", "", "comma-separated subnet counts (default 1,2,4,8)")
	widths := fs.String("widths", "", "comma-separated link widths in bits (default 64,128,256,512)")
	vcdepths := fs.String("vcdepths", "", "comma-separated per-VC buffer depths in flits (default 2,4,8)")
	tidles := fs.String("tidles", "", "comma-separated idle-detect windows in cycles (default 2,4,8)")
	metrics := fs.String("metrics", "", "comma-separated congestion metrics (default BFM,Delay,IQOcc)")
	thresholds := fs.String("thresholds", "", "comma-separated metric thresholds, 0 = metric default (default 0,0.5,2)")
	var opts catnap.ExperimentOpts
	e := &opts.Explore
	fs.Float64Var(&e.Load, "load", 0.10, "offered load every point is evaluated at (packets/node/cycle)")
	fs.Int64Var(&e.Budget, "budget", 0, "max points to evaluate (0 = the whole space)")
	fs.IntVar(&e.Batch, "batch", 0, "points per sampling round (0 = 64)")
	fs.BoolVar(&e.Grid, "grid", false, "enumerate the space in order instead of sampling adaptively")
	fs.Float64Var(&e.ExploreFrac, "explore-frac", 0, "random-exploration fraction of each adaptive batch (0 = 0.25)")
	fs.Float64Var(&e.MinAccepted, "min-accepted", 0, "feasibility floor as a fraction of offered load (0 = 0.9)")
	fs.Uint64Var(&e.SampleSeed, "sample-seed", 1, "sampling RNG seed (simulations use -seed)")
	fs.Uint64Var(&e.SimSeed, "seed", 1, "simulation seed every point runs with")
	fs.Int64Var(&opts.Scale.Warmup, "warmup", 1000, "warmup cycles per point")
	fs.Int64Var(&opts.Scale.Measure, "measure", 4000, "measurement cycles per point")
	fs.StringVar(&e.CacheDir, "cache", "", "result-cache directory; rerun with the same flags and directory to resume (empty = in-memory only)")
	frontOut := fs.String("front-out", "", "write the frontier's deterministic JSON to this file")
	a.workerFlags(fs)
	return func(args []string) error {
		if len(args) > 0 {
			return errUsage
		}
		var err error
		s := &e.Space
		if s.Subnets, err = parseList("subnets", *subnets, strconv.Atoi); err != nil {
			return err
		}
		if s.Widths, err = parseList("widths", *widths, strconv.Atoi); err != nil {
			return err
		}
		if s.VCDepths, err = parseList("vcdepths", *vcdepths, strconv.Atoi); err != nil {
			return err
		}
		if s.TIdles, err = parseList("tidles", *tidles, strconv.Atoi); err != nil {
			return err
		}
		if s.Metrics, err = parseList("metrics", *metrics, func(m string) (string, error) { return m, nil }); err != nil {
			return err
		}
		parseFloat := func(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
		if s.Thresholds, err = parseList("thresholds", *thresholds, parseFloat); err != nil {
			return err
		}
		opts.Sweep = catnap.SweepOptions{Jobs: a.jobs, Progress: a.progress}

		r, err := catnap.RunExplore(a.ctx, opts)
		a.progress.Finish()
		if err != nil {
			if a.ctx.Err() != nil && e.CacheDir != "" {
				fmt.Fprintf(a.stderr, "catnap: interrupted; rerun with the same flags to resume from %s\n", e.CacheDir)
			}
			return err
		}
		// Greppable campaign summary (the CI smoke job asserts the
		// warm-run hit rate from this line).
		fmt.Fprintf(a.stderr, "explore: %d points (hits %d, misses %d, hit rate %.0f%%), front %d, rounds %d\n",
			r.Proposed, r.Cache.Hits, r.Cache.Misses, r.Cache.HitRate(), r.Front.Len(), r.Rounds)
		writeFront(a.stdout, r, e)

		if *frontOut == "" {
			return nil
		}
		f, err := os.Create(*frontOut)
		if err != nil {
			return err
		}
		err = r.WriteFront(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
}

// writeFront prints the frontier table under a header line. The header
// gives the evaluation parameters the campaign ran with, read from r
// rather than the flags, since a zero flag selects a default.
func writeFront(w io.Writer, r *catnap.ExploreResult, e *catnap.ExploreOpts) {
	fmt.Fprintf(w, "# space=%d budget=%d load=%g warmup=%d measure=%d seed=%d sample-seed=%d grid=%t\n",
		r.SpaceSize, e.Budget, r.Eval.Load, r.Eval.Warmup, r.Eval.Measure, r.Eval.Seed, e.SampleSeed, e.Grid)
	fmt.Fprintf(w, "%7s %6s %7s %6s %7s %10s %10s %9s %9s %7s\n",
		"subnets", "width", "vcdepth", "tidle", "metric", "threshold", "power(W)", "lat(cyc)", "accepted", "CSC%")
	for _, p := range r.Front.Points() {
		s := r.FrontSpec(p)
		fmt.Fprintf(w, "%7d %6d %7d %6d %7s %10g %10.2f %9.1f %9.3f %7.1f\n",
			s.Subnets, s.WidthBits, s.VCDepth, s.TIdle, s.Metric, s.Threshold,
			p.PowerW, p.Latency, p.Accepted, p.CSCPercent)
	}
}
