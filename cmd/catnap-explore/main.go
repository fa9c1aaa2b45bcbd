// Command catnap-explore searches the Catnap design space — subnet
// count, link width, buffer depth, idle-detect window, congestion
// metric, gating threshold — for the power/latency Pareto front.
//
// Three layers make campaigns cheap to repeat, kill, and scale:
//
//   - -cache DIR persists every evaluated point content-addressed by its
//     canonical spec hash (append-only JSONL shards); re-running a
//     campaign, or a different campaign overlapping the same points,
//     costs map lookups instead of simulations. The end-of-run summary
//     reports hits/misses.
//   - -checkpoint FILE snapshots the frontier, sampling cursor, and
//     pending batch atomically after every round. A killed campaign
//     (Ctrl-C, OOM, machine loss) restarts from the snapshot and
//     finishes with a frontier byte-identical to an uninterrupted run.
//   - Adaptive sampling (the default) steers each batch toward ±1-step
//     neighbors of current frontier members, spending -budget where the
//     front actually is; -grid enumerates the space in order instead,
//     as the exhaustive baseline.
//
// Axis flags (-subnets, -widths, -vcdepths, -tidles, -metrics,
// -thresholds) take comma-separated value lists and default to the
// built-in ~1.3k-point space. Points evaluate in parallel (-jobs) with
// event-driven idle fast-forward on; the frontier table goes to stdout
// and -front-out writes its deterministic JSON form.
//
// Example — a 200-point adaptive campaign, resumable and cached:
//
//	catnap-explore -budget 200 -cache .explore/cache -checkpoint .explore/ckpt.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/prof"
	"github.com/catnap-noc/catnap/internal/runner"
)

var (
	subnetsStr    = flag.String("subnets", "", "comma-separated subnet counts (default 1,2,4,8)")
	widthsStr     = flag.String("widths", "", "comma-separated link widths in bits (default 64,128,256,512)")
	vcdepthsStr   = flag.String("vcdepths", "", "comma-separated per-VC buffer depths in flits (default 2,4,8)")
	tidlesStr     = flag.String("tidles", "", "comma-separated idle-detect windows in cycles (default 2,4,8)")
	metricsStr    = flag.String("metrics", "", "comma-separated congestion metrics (default BFM,Delay,IQOcc)")
	thresholdsStr = flag.String("thresholds", "", "comma-separated metric thresholds, 0 = metric default (default 0,0.5,2)")
	load          = flag.Float64("load", 0.10, "offered load every point is evaluated at (packets/node/cycle)")
	budget        = flag.Int64("budget", 0, "max points to evaluate (0 = the whole space)")
	batch         = flag.Int("batch", 0, "points per sampling round and checkpoint cadence (0 = 64)")
	grid          = flag.Bool("grid", false, "enumerate the space in order instead of sampling adaptively")
	exploreFrac   = flag.Float64("explore-frac", 0, "random-exploration fraction of each adaptive batch (0 = 0.25)")
	minAccepted   = flag.Float64("min-accepted", 0, "feasibility floor as a fraction of offered load (0 = 0.9)")
	sampleSeed    = flag.Uint64("sample-seed", 1, "sampling RNG seed (simulations use -seed)")
	seed          = flag.Uint64("seed", 1, "simulation seed every point runs with")
	warmup        = flag.Int64("warmup", 1000, "warmup cycles per point")
	measure       = flag.Int64("measure", 4000, "measurement cycles per point")
	cacheDir      = flag.String("cache", "", "result-cache directory (empty = in-memory only)")
	checkpoint    = flag.String("checkpoint", "", "checkpoint file for kill/resume (empty = off)")
	frontOut      = flag.String("front-out", "", "write the frontier's deterministic JSON to this file")
	jobs          = flag.Int("jobs", 0, "parallel evaluation workers (0 = GOMAXPROCS)")
	noSkip        = flag.Bool("no-skip", false, "disable event-driven idle fast-forward (bit-identical, only slower)")
	reuse         = flag.Bool("reuse", true, "recycle one simulator per worker across evaluations instead of rebuilding (bit-identical; disable to benchmark fresh construction)")
	verbose       = flag.Bool("v", false, "log every evaluated point as it completes")
	cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
	memprofile    = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
)

func main() {
	flag.Parse()
	// Route every exit through explore's return so the deferred profile
	// stop runs (os.Exit would skip it and truncate the CPU profile).
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-explore:", err)
		os.Exit(1)
	}
	err = explore()
	if perr := stopProf(); err == nil && perr != nil {
		err = fmt.Errorf("profile: %w", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-explore:", err)
		os.Exit(1)
	}
}

func explore() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts, err := buildOpts()
	if err != nil {
		return err
	}
	prog := runner.NewConsole(os.Stderr, *verbose)
	opts.Sweep.Progress = prog

	r, err := catnap.RunExplore(ctx, opts)
	prog.Finish()
	if err != nil {
		if ctx.Err() != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "catnap-explore: interrupted; rerun with the same flags to resume from %s\n", *checkpoint)
		}
		return err
	}

	// Greppable campaign summary (the CI smoke job asserts the warm-run
	// hit rate from this line).
	fmt.Fprintf(os.Stderr, "explore: %d points (hits %d, misses %d, hit rate %.0f%%), front %d, rounds %d\n",
		r.Proposed, r.Cache.Hits, r.Cache.Misses, r.Cache.HitRate(), r.Front.Len(), r.Rounds)

	fmt.Printf("# space=%d budget=%d load=%g warmup=%d measure=%d seed=%d sample-seed=%d grid=%t\n",
		r.SpaceSize, *budget, *load, *warmup, *measure, *seed, *sampleSeed, *grid)
	fmt.Printf("%7s %6s %7s %6s %7s %10s %10s %9s %9s %7s\n",
		"subnets", "width", "vcdepth", "tidle", "metric", "threshold", "power(W)", "lat(cyc)", "accepted", "CSC%")
	for _, p := range r.Front.Points() {
		s := r.FrontSpec(p)
		fmt.Printf("%7d %6d %7d %6d %7s %10g %10.2f %9.1f %9.3f %7.1f\n",
			s.Subnets, s.WidthBits, s.VCDepth, s.TIdle, s.Metric, s.Threshold,
			p.PowerW, p.Latency, p.Accepted, p.CSCPercent)
	}

	if *frontOut != "" {
		f, err := os.Create(*frontOut)
		if err != nil {
			return err
		}
		err = r.WriteFront(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// buildOpts assembles and validates the experiment options from flags.
func buildOpts() (catnap.ExperimentOpts, error) {
	var opts catnap.ExperimentOpts
	var err error
	e := &opts.Explore
	if e.Space.Subnets, err = parseInts("subnets", *subnetsStr); err != nil {
		return opts, err
	}
	if e.Space.Widths, err = parseInts("widths", *widthsStr); err != nil {
		return opts, err
	}
	if e.Space.VCDepths, err = parseInts("vcdepths", *vcdepthsStr); err != nil {
		return opts, err
	}
	if e.Space.TIdles, err = parseInts("tidles", *tidlesStr); err != nil {
		return opts, err
	}
	e.Space.Metrics = parseStrings(*metricsStr)
	if e.Space.Thresholds, err = parseFloats("thresholds", *thresholdsStr); err != nil {
		return opts, err
	}
	e.Load = *load
	e.Budget = *budget
	e.Batch = *batch
	e.Grid = *grid
	e.ExploreFrac = *exploreFrac
	e.MinAccepted = *minAccepted
	e.SampleSeed = *sampleSeed
	e.SimSeed = *seed
	e.CacheDir = *cacheDir
	e.CheckpointPath = *checkpoint
	opts.Scale = catnap.Scale{Warmup: *warmup, Measure: *measure}
	opts.Sweep.Jobs = *jobs
	opts.NoIdleSkip = *noSkip
	opts.NoReuse = !*reuse
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	return opts, nil
}

func parseInts(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseStrings(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
