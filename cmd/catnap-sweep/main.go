// Command catnap-sweep runs an offered-load sweep of any registered
// design over any synthetic traffic pattern and prints one row per load:
// throughput, latency, power, CSC, and per-subnet flit shares. It is the
// free-form exploration companion to cmd/catnap's canned experiments.
//
// The loads run in parallel on the sweep engine (-jobs workers, default
// GOMAXPROCS); rows are printed in load order once the sweep completes,
// so the result table is byte-identical at any worker count. Progress
// and the end-of-run summary go to stderr (-v logs every point).
//
// Cycle-level telemetry is off by default; -metrics/-events attach one
// labeled collector per load (see internal/telemetry for the schema)
// and also record sweep-point lifecycle events.
//
// -cpuprofile and -memprofile write pprof profiles of the whole sweep
// (all workers), for digging into simulator hot paths at realistic
// loads.
//
// Example:
//
//	catnap-sweep -design 4NT-128b-PG -pattern transpose -loads 0.02,0.05,0.1,0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/prof"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/trace"
	"github.com/catnap-noc/catnap/internal/traffic"
)

var (
	design      = flag.String("design", "4NT-128b-PG", "network design (see 'catnap designs')")
	pattern     = flag.String("pattern", "uniform-random", "traffic pattern: uniform-random|transpose|bit-complement")
	loadsStr    = flag.String("loads", "0.02,0.05,0.10,0.20,0.30,0.40,0.50", "comma-separated offered loads (packets/node/cycle)")
	warmup      = flag.Int64("warmup", 3000, "warmup cycles per point")
	measure     = flag.Int64("measure", 12000, "measurement cycles per point")
	seed        = flag.Uint64("seed", 1, "experiment seed")
	metricTh    = flag.Float64("threshold", 0, "override the congestion metric threshold (0 = default)")
	traceFile   = flag.String("trace", "", "write a JSONL per-packet trace to this file, gzipped if it ends in .gz (single-load runs)")
	metricsFile = flag.String("metrics", "", "write telemetry metrics to this file (JSONL; CSV if it ends in .csv), one labeled collector per load")
	eventsFile  = flag.String("events", "", "stream telemetry events (sleep/wake, congestion, point lifecycle) to this JSONL file")
	jobs        = flag.Int("jobs", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	verbose     = flag.Bool("v", false, "log every sweep point as it completes")
	cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
)

func main() {
	flag.Parse()
	// Route every exit through sweep's return so the deferred profile
	// stop runs (os.Exit would skip it and truncate the CPU profile).
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-sweep:", err)
		os.Exit(1)
	}
	err = sweep()
	if perr := stopProf(); err == nil && perr != nil {
		err = fmt.Errorf("profile: %w", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-sweep:", err)
		os.Exit(1)
	}
}

func sweep() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := checkFlags(*warmup, *measure, *jobs, *metricTh); err != nil {
		return err
	}
	pat, err := traffic.PatternByName(*pattern)
	if err != nil {
		return err
	}
	loads, err := parseLoads(*loadsStr)
	if err != nil {
		return err
	}
	if _, err := catnap.Design(*design); err != nil {
		return err
	}
	if *traceFile != "" && len(loads) > 1 {
		return fmt.Errorf("-trace records one run's packets; use a single -loads value")
	}

	rec, finishTelemetry, err := telemetry.OpenFiles(*metricsFile, *eventsFile, 0)
	if err != nil {
		return err
	}

	pts := make([]runner.Point[catnap.Results], len(loads))
	for i, load := range loads {
		label := fmt.Sprintf("%s @ %.3f", *design, load)
		pts[i] = runner.Point[catnap.Results]{
			Label:  label,
			Cycles: *warmup + *measure,
			Run: func(ctx context.Context) (catnap.Results, error) {
				cfg, err := catnap.Design(*design)
				if err != nil {
					return catnap.Results{}, err
				}
				cfg.Seed = *seed
				if *metricTh > 0 {
					cfg.MetricThreshold = *metricTh
				}
				// The worker's pool resets one simulator in place.
				pool := runner.WorkerState(ctx).(*catnap.SimPool)
				sim, err := pool.Get(cfg)
				if err != nil {
					return catnap.Results{}, err
				}
				if rec != nil {
					sim.EnableTelemetry(rec, label)
				}
				var flushTrace func() error
				if *traceFile != "" {
					f, err := os.Create(*traceFile)
					if err != nil {
						return catnap.Results{}, err
					}
					var topts []trace.Option
					if strings.HasSuffix(*traceFile, ".gz") {
						topts = append(topts, trace.WithGzip())
					}
					tw := sim.EnableTrace(f, topts...)
					flushTrace = tw.Close
				}
				res, err := sim.RunSyntheticCtx(ctx, pat, traffic.Constant(load), *warmup, *measure)
				if err != nil {
					return catnap.Results{}, err
				}
				if flushTrace != nil {
					if err := flushTrace(); err != nil {
						return catnap.Results{}, err
					}
				}
				return res, nil
			},
		}
	}

	prog := runner.NewConsole(os.Stderr, *verbose)
	var sweepProg runner.Progress = prog
	if rec != nil {
		sweepProg = runner.Tee(prog, rec.Progress())
	}
	ropts := runner.Options{
		Jobs: *jobs, Progress: sweepProg,
		WorkerState: func() any { return catnap.NewSimPool() },
	}
	results, err := runner.Values(runner.Run(ctx, pts, ropts))
	prog.Finish()
	if err != nil {
		return err
	}
	if err := finishTelemetry(); err != nil {
		return err
	}

	fmt.Printf("# design=%s pattern=%s warmup=%d measure=%d seed=%d\n",
		*design, *pattern, *warmup, *measure, *seed)
	fmt.Printf("%8s %9s %9s %9s %9s %7s %7s  %s\n",
		"offered", "accepted", "lat", "p99", "power(W)", "CSC%", "active", "subnet shares")
	for i, res := range results {
		shares := make([]string, len(res.SubnetShare))
		for j, s := range res.SubnetShare {
			shares[j] = fmt.Sprintf("%.2f", s)
		}
		fmt.Printf("%8.3f %9.4f %9.1f %9.0f %9.1f %7.1f %7.2f  %s\n",
			loads[i], res.AcceptedThroughput, res.AvgLatency, res.P99Latency,
			res.Power.Total, res.CSCPercent, res.ActiveRouterFraction,
			strings.Join(shares, ","))
	}
	return nil
}

// checkFlags rejects numeric flag values no sweep can run with, naming
// the flag, before any point starts.
func checkFlags(warmup, measure int64, jobs int, threshold float64) error {
	switch {
	case warmup < 0:
		return fmt.Errorf("-warmup %d: want >= 0 cycles", warmup)
	case measure <= 0:
		return fmt.Errorf("-measure %d: want > 0 cycles", measure)
	case jobs < 0:
		return fmt.Errorf("-jobs %d: want >= 0 workers (0 = GOMAXPROCS)", jobs)
	case !(threshold >= 0) || math.IsInf(threshold, 1):
		return fmt.Errorf("-threshold %g: want a finite value >= 0 (0 = default)", threshold)
	}
	return nil
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || !(v > 0 && v <= 1) {
			return nil, fmt.Errorf("bad load %q (want a fraction in (0,1])", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no loads given")
	}
	return out, nil
}
