// Command catnap runs the paper's experiments by ID and prints the
// corresponding table or figure data as text (or CSV with -csv).
//
// Usage:
//
//	catnap [flags] <experiment>
//
// The experiment list comes from the catnap.Experiments registry: fig2
// table2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 headline —
// plus, beyond the paper: profiles hetero topology explore and the six
// design-choice studies ablation-rcs ablation-threshold
// ablation-idle-detect ablation-wakeup ablation-region ablation-subnets.
// "list" prints the registry; "designs" lists the registered
// configurations.
//
// Grid-shaped experiments run on the parallel sweep engine; -jobs
// selects the worker count (default GOMAXPROCS) and -v logs every sweep
// point. Progress and the end-of-run summary go to stderr, result
// tables to stdout. Interrupting (Ctrl-C) cancels the sweep between
// simulated cycles. Results are bit-identical at any -jobs value.
//
// Cycle-level telemetry (see internal/telemetry) is off by default and
// free when off; -metrics and -events attach a recorder and export what
// it saw after the run:
//
//	catnap -experiment fig12 -metrics m.jsonl -events e.jsonl
//
// Flags:
//
//	-experiment  experiment name (alternative to the positional argument)
//	-quick       reduced cycle counts (fast smoke run)
//	-csv         emit CSV instead of aligned text
//	-pattern     traffic pattern for fig11 (uniform-random|transpose|bit-complement)
//	-jobs        parallel sweep workers (0 = GOMAXPROCS)
//	-timeout     per-point wall-clock limit (0 = none)
//	-metrics     write telemetry metrics to this file (JSONL; CSV if it ends in .csv)
//	-events      stream telemetry events to this JSONL file
//	-window      telemetry/fig12 series window in cycles (0 = the paper's 50)
//	-v           log every sweep point as it completes
//	-cpuprofile  write a pprof CPU profile of the run to this file
//	-memprofile  write a pprof heap profile at exit to this file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/prof"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/telemetry"
)

var (
	experimentF = flag.String("experiment", "", "experiment name (alternative to the positional argument)")
	quick       = flag.Bool("quick", false, "reduced cycle counts for a fast smoke run")
	csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
	pattern     = flag.String("pattern", "uniform-random", "traffic pattern for fig11")
	jobs        = flag.Int("jobs", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	timeout     = flag.Duration("timeout", 0, "per-point wall-clock limit (0 = none)")
	metricsFile = flag.String("metrics", "", "write telemetry metrics to this file (JSONL; CSV if it ends in .csv)")
	eventsFile  = flag.String("events", "", "stream telemetry events (sleep/wake, congestion, sweep lifecycle) to this JSONL file")
	window      = flag.Int64("window", 0, "telemetry/fig12 series window in cycles (0 = the paper's 50)")
	verbose     = flag.Bool("v", false, "log every sweep point as it completes")
	cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	// os.Exit skips deferred calls, so the exit code is computed in
	// mainCode, whose defers (profile stop) run before the process exits.
	os.Exit(mainCode())
}

func mainCode() (code int) {
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap:", err)
		return 1
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "catnap: profile:", perr)
			if code == 0 {
				code = 1
			}
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch flag.NArg() {
	case 0:
		if *experimentF == "" {
			usage()
			return 2
		}
		err = run(ctx, *experimentF)
	case 1:
		if *experimentF != "" && *experimentF != flag.Arg(0) {
			err = fmt.Errorf("both -experiment %s and argument %s given", *experimentF, flag.Arg(0))
			break
		}
		err = run(ctx, flag.Arg(0))
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap:", err)
		return 1
	}
	return 0
}

// run executes one registry experiment (or a listing command) and
// renders its table.
func run(ctx context.Context, name string) error {
	switch name {
	case "designs":
		for _, d := range catnap.Designs() {
			cfg, err := catnap.Design(d)
			if err != nil {
				return err
			}
			fmt.Printf("%-18s %dx%d mesh, %d subnet(s) x %db @ %.3fV\n",
				d, cfg.Rows, cfg.Cols, cfg.Subnets, cfg.LinkWidthBits, cfg.VoltageV)
		}
		return nil
	case "list":
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, e := range catnap.Experiments() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", e.Name, e.Kind, e.Description)
		}
		return w.Flush()
	}

	rec, finish, err := telemetry.OpenFiles(*metricsFile, *eventsFile, *window)
	if err != nil {
		return err
	}

	prog := runner.NewConsole(os.Stderr, *verbose)
	res, err := catnap.RunExperiment(ctx, name, catnap.ExperimentOpts{
		Scale:     scale(),
		Loads:     loads(),
		Pattern:   *pattern,
		Window:    *window,
		Sweep:     catnap.SweepOptions{Jobs: *jobs, Timeout: *timeout, Progress: prog},
		Telemetry: rec,
	})
	prog.Finish()
	if err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	table(res.Header, res.Rows)
	if res.Note != "" {
		fmt.Println("\n" + res.Note)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: catnap [flags] <experiment>

Experiments (the paper's tables and figures, then the studies beyond it):
`)
	w := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	for _, e := range catnap.Experiments() {
		fmt.Fprintf(w, "  %s\t%s\n", e.Name, e.Description)
	}
	w.Flush()
	fmt.Fprintf(os.Stderr, `
Listings:
  list               the experiment registry with kinds
  designs            list registered network configurations

Flags:
`)
	flag.PrintDefaults()
}

// scale returns the simulation scale override for the current -quick
// setting; the zero Scale selects each experiment's own defaults.
func scale() catnap.Scale {
	if *quick {
		return catnap.Scale{Warmup: 1000, Measure: 4000}
	}
	return catnap.Scale{}
}

// loads returns the offered-load sweep for the current -quick setting;
// nil selects each experiment's default sweep.
func loads() []float64 {
	if *quick {
		return []float64{0.05, 0.15, 0.30, 0.45}
	}
	return nil
}

// table renders rows with a header through a tabwriter or as CSV.
func table(header []string, rows [][]string) {
	if *csv {
		fmt.Println(strings.Join(header, ","))
		for _, r := range rows {
			fmt.Println(strings.Join(r, ","))
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
}
