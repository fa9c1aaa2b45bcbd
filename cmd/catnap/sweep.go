package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/trace"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// sweepCommand runs an offered-load sweep of any registered design over
// any synthetic traffic pattern and prints one row per load: throughput,
// latency, power, CSC, and per-subnet flit shares. It is the free-form
// companion to the canned experiments:
//
//	catnap sweep -design 4NT-128b-PG -pattern transpose -loads 0.02,0.05,0.1,0.2
//
// Rows print in load order once the sweep completes, so the table is
// byte-identical at any -jobs value. -metrics/-events attach one labeled
// collector per load and also record point lifecycle events. -trace
// writes a single-load run's per-packet JSONL trace, gzipped if the name
// ends in .gz; it is closed on every return, so an interrupted run still
// leaves a trace the trace command reads.
func sweepCommand(a *app, fs *flag.FlagSet) func([]string) error {
	design := fs.String("design", "4NT-128b-PG", "network design (see 'catnap designs')")
	pattern := fs.String("pattern", "uniform-random", "traffic pattern: uniform-random|transpose|bit-complement")
	loadsStr := fs.String("loads", "0.02,0.05,0.10,0.20,0.30,0.40,0.50", "comma-separated offered loads (packets/node/cycle)")
	warmup := fs.Int64("warmup", 3000, "warmup cycles per point")
	measure := fs.Int64("measure", 12000, "measurement cycles per point")
	seed := fs.Uint64("seed", 1, "experiment seed")
	threshold := fs.Float64("threshold", 0, "override the congestion metric threshold (0 = default)")
	traceFile := fs.String("trace", "", "write a JSONL per-packet trace to this file, gzipped if it ends in .gz (single-load runs)")
	a.workerFlags(fs)
	a.telemetryFlags(fs)
	return func(args []string) error {
		if len(args) > 0 {
			return errUsage
		}
		if err := checkFlags(*warmup, *measure, a.jobs, *threshold); err != nil {
			return err
		}
		pat, err := traffic.PatternByName(*pattern)
		if err != nil {
			return err
		}
		loads, err := parseList("loads", *loadsStr, parseLoad)
		if err != nil {
			return err
		}
		if len(loads) == 0 {
			return errors.New("-loads: no loads given")
		}
		cfg, err := catnap.Design(*design)
		if err != nil {
			return err
		}
		cfg.Seed = *seed
		if *threshold > 0 {
			cfg.MetricThreshold = *threshold
		}
		if *traceFile != "" && len(loads) > 1 {
			return fmt.Errorf("-trace records one run's packets; use a single -loads value")
		}

		rec, err := a.openTelemetry(0)
		if err != nil {
			return err
		}
		pts := make([]runner.Point[catnap.Results], len(loads))
		for i, load := range loads {
			label := fmt.Sprintf("%s @ %.3f", *design, load)
			pts[i] = runner.Point[catnap.Results]{
				Label:  label,
				Cycles: *warmup + *measure,
				Run: func(ctx context.Context) (res catnap.Results, err error) {
					// The worker's pool resets one simulator in place.
					sim, err := runner.WorkerState(ctx).(*catnap.SimPool).Get(cfg)
					if err != nil {
						return res, err
					}
					if rec != nil {
						sim.EnableTelemetry(rec, label)
					}
					if *traceFile != "" {
						f, ferr := os.Create(*traceFile)
						if ferr != nil {
							return res, ferr
						}
						var topts []trace.Option
						if strings.HasSuffix(*traceFile, ".gz") {
							topts = append(topts, trace.WithGzip())
						}
						tw := sim.EnableTrace(f, topts...)
						defer func() { err = errors.Join(err, tw.Close()) }()
					}
					return sim.RunSyntheticCtx(ctx, pat, traffic.Constant(load), *warmup, *measure)
				},
			}
		}

		var prog runner.Progress = a.progress
		if rec != nil {
			prog = runner.Tee(a.progress, rec.Progress())
		}
		results, err := runner.Values(runner.Run(a.ctx, pts, runner.Options{
			Jobs: a.jobs, Progress: prog,
			WorkerState: func() any { return catnap.NewSimPool() },
		}))
		a.progress.Finish()
		if err == nil {
			err = a.closeTelemetry()
		}
		if err != nil {
			return err
		}

		w := a.stdout
		fmt.Fprintf(w, "# design=%s pattern=%s warmup=%d measure=%d seed=%d\n",
			*design, *pattern, *warmup, *measure, *seed)
		fmt.Fprintf(w, "%8s %9s %9s %9s %9s %7s %7s  %s\n",
			"offered", "accepted", "lat", "p99", "power(W)", "CSC%", "active", "subnet shares")
		for i, res := range results {
			shares := make([]string, len(res.SubnetShare))
			for j, s := range res.SubnetShare {
				shares[j] = fmt.Sprintf("%.2f", s)
			}
			fmt.Fprintf(w, "%8.3f %9.4f %9.1f %9.0f %9.1f %7.1f %7.2f  %s\n",
				loads[i], res.AcceptedThroughput, res.AvgLatency, res.P99Latency,
				res.Power.Total, res.CSCPercent, res.ActiveRouterFraction,
				strings.Join(shares, ","))
		}
		return nil
	}
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

// parseLoad parses one offered load, a fraction in (0, 1].
func parseLoad(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0 && v <= 1) {
		return 0, fmt.Errorf("bad load %q (want a fraction in (0,1])", s)
	}
	return v, nil
}
