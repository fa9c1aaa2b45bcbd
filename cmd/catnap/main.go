// Command catnap runs the simulator from the command line. The first
// argument picks the command:
//
//	catnap <experiment> [flags]  run one registry experiment, print its table
//	catnap list                  the experiment registry with kinds
//	catnap designs               the registered network configurations
//	catnap sweep [flags]         offered-load sweep of one design
//	catnap explore [flags]       design-space search for the Pareto front
//	catnap trace [flags] [file]  summarize a packet trace or telemetry file
//
// The experiments come from the catnap.Experiments registry: fig2
// table2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 headline —
// plus, beyond the paper: profiles hetero topology and the six
// design-choice studies ablation-rcs ablation-threshold
// ablation-idle-detect ablation-wakeup ablation-region ablation-subnets.
// The name explore runs the explore command, not the registry entry of
// that name, which serves RunExperiment callers.
//
// Experiments, sweeps and explore campaigns run their points on the
// parallel sweep engine: -jobs selects the worker count (default
// GOMAXPROCS) and -v logs every point. Results are bit-identical at any
// -jobs value. Progress and the end-of-run summary go to stderr, result
// tables to stdout. Interrupting (Ctrl-C) cancels the run between
// simulated cycles. -cpuprofile and -memprofile write pprof profiles of
// the whole run (go tool pprof cpu.prof).
//
// Cycle-level telemetry (see internal/telemetry) is off by default and
// free when off. On experiments and sweeps, -metrics and -events attach a
// recorder and write what it saw, also when the run fails or is
// interrupted; the trace command summarizes those files:
//
//	catnap fig12 -metrics m.jsonl -events e.jsonl
//	catnap trace -events e.jsonl
//
// The exit status is 0 on success, 1 when the command fails and 2 on a
// usage error. 'catnap <command> -h' lists a command's flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// command registers one command's flags on fs and returns the function
// that runs it on the arguments left after the flags.
type command func(a *app, fs *flag.FlagSet) func(args []string) error

// commands are the commands other than the experiments, with their
// synopses; every other name runs experimentCommand.
var commands = map[string]struct {
	synopsis string
	cmd      command
}{
	"sweep":   {"sweep [flags]", sweepCommand},
	"explore": {"explore [flags]", exploreCommand},
	"trace":   {"trace [-series N] trace.jsonl\n       catnap trace -metrics m.jsonl | -events e.jsonl", traceCommand},
}

// errUsage is returned by a command whose arguments do not fit its
// synopsis; run prints the command's usage and exits 2.
var errUsage = errors.New("usage")

// app is what every command shares: the interrupt context, the output
// streams, the progress console and the common flags. Each common flag
// is registered only on the commands that take it.
type app struct {
	ctx            context.Context
	name           string
	stdout, stderr io.Writer
	progress       *runner.Console

	jobs                   int
	verbose                bool
	cpuprofile, memprofile string
	metrics, events        string

	// finish closes the telemetry files; openTelemetry sets it.
	finish func() error
}

// run executes one command line (args without the program name) and
// returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		usage(stderr)
		return 2
	}
	a := &app{ctx: ctx, name: args[0], stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("catnap "+a.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c, ok := commands[a.name]
	if !ok {
		c.cmd = experimentCommand
	}
	fs.Usage = func() {
		if ok {
			fmt.Fprintf(stderr, "usage: catnap %s\n", c.synopsis)
		} else {
			usage(stderr)
		}
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	body := c.cmd(a, fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	a.progress = runner.NewConsole(stderr, a.verbose)
	err := a.execute(func() error { return body(fs.Args()) })
	switch {
	case errors.Is(err, errUsage):
		fs.Usage()
		return 2
	case err != nil:
		// Library errors already carry the prefix; print it once.
		msg := err.Error()
		if !strings.HasPrefix(msg, "catnap: ") {
			msg = "catnap: " + msg
		}
		fmt.Fprintln(stderr, msg)
		return 1
	}
	return 0
}

// execute runs body inside the -cpuprofile and -memprofile profiles and
// closes the telemetry files on every path out of it. A failure to close
// a file or write a profile joins body's error rather than replacing it.
func (a *app) execute(body func() error) error {
	var cpu *os.File
	if a.cpuprofile != "" {
		var err error
		if cpu, err = os.Create(a.cpuprofile); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return fmt.Errorf("start CPU profile: %w", err)
		}
	}
	err := errors.Join(body(), a.closeTelemetry())
	if cpu != nil {
		pprof.StopCPUProfile()
		err = errors.Join(err, cpu.Close())
	}
	if a.memprofile != "" {
		f, ferr := os.Create(a.memprofile)
		if ferr == nil {
			// Settle the live heap so the snapshot shows retained
			// memory, not transient garbage.
			runtime.GC()
			ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		err = errors.Join(err, ferr)
	}
	return err
}

// workerFlags registers -jobs, -v, -cpuprofile and -memprofile, the
// common flags of every command that simulates.
func (a *app) workerFlags(fs *flag.FlagSet) {
	fs.IntVar(&a.jobs, "jobs", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.BoolVar(&a.verbose, "v", false, "log every point as it completes")
	fs.StringVar(&a.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&a.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
}

// telemetryFlags registers -metrics and -events.
func (a *app) telemetryFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.metrics, "metrics", "", "write telemetry metrics to this file (JSONL; CSV if it ends in .csv)")
	fs.StringVar(&a.events, "events", "", "stream telemetry events (sleep/wake, congestion, point lifecycle) to this JSONL file")
}

// openTelemetry creates the -metrics and -events files for a recorder
// with the given series window; the recorder is nil when neither flag
// is set. execute closes the files if the command does not.
func (a *app) openTelemetry(window int64) (*telemetry.Recorder, error) {
	rec, finish, err := telemetry.OpenFiles(a.metrics, a.events, window)
	a.finish = finish
	return rec, err
}

// closeTelemetry flushes and closes the telemetry files once; later
// calls do nothing. Commands call it before printing their results.
func (a *app) closeTelemetry() error {
	finish := a.finish
	a.finish = nil
	if finish == nil {
		return nil
	}
	return finish()
}

// parseList parses a comma-separated flag value item by item, skipping
// empty items; an error names the flag.
func parseList[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := parse(item)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// experimentCommand runs the registry experiment a.name and prints its
// table; the names list and designs print the registry and the designs.
func experimentCommand(a *app, fs *flag.FlagSet) func([]string) error {
	quick := fs.Bool("quick", false, "reduced cycle counts for a fast smoke run")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	pattern := fs.String("pattern", "uniform-random", "traffic pattern for fig11")
	window := fs.Int64("window", 0, "telemetry/fig12 series window in cycles (0 = the paper's 50)")
	timeout := fs.Duration("timeout", 0, "per-point wall-clock limit (0 = none)")
	a.workerFlags(fs)
	a.telemetryFlags(fs)
	return func(args []string) error {
		if len(args) > 0 {
			return errUsage
		}
		switch a.name {
		case "designs":
			for _, d := range catnap.Designs() {
				cfg, err := catnap.Design(d)
				if err != nil {
					return err
				}
				fmt.Fprintf(a.stdout, "%-18s %dx%d mesh, %d subnet(s) x %db @ %.3fV\n",
					d, cfg.Rows, cfg.Cols, cfg.Subnets, cfg.LinkWidthBits, cfg.VoltageV)
			}
			return nil
		case "list":
			w := tabwriter.NewWriter(a.stdout, 2, 4, 2, ' ', 0)
			for _, e := range catnap.Experiments() {
				fmt.Fprintf(w, "%s\t%s\t%s\n", e.Name, e.Kind, e.Description)
			}
			return w.Flush()
		}

		rec, err := a.openTelemetry(*window)
		if err != nil {
			return err
		}
		opts := catnap.ExperimentOpts{
			Pattern:   *pattern,
			Window:    *window,
			Sweep:     catnap.SweepOptions{Jobs: a.jobs, Timeout: *timeout, Progress: a.progress},
			Telemetry: rec,
		}
		if *quick {
			opts.Scale = catnap.Scale{Warmup: 1000, Measure: 4000}
			opts.Loads = []float64{0.05, 0.15, 0.30, 0.45}
		}
		res, err := catnap.RunExperiment(a.ctx, a.name, opts)
		a.progress.Finish()
		if err == nil {
			err = a.closeTelemetry()
		}
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprintln(a.stdout, strings.Join(res.Header, ","))
			for _, r := range res.Rows {
				fmt.Fprintln(a.stdout, strings.Join(r, ","))
			}
		} else {
			w := tabwriter.NewWriter(a.stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(w, strings.Join(res.Header, "\t"))
			for _, r := range res.Rows {
				fmt.Fprintln(w, strings.Join(r, "\t"))
			}
			w.Flush()
		}
		if res.Note != "" {
			fmt.Fprintln(a.stdout, "\n"+res.Note)
		}
		return nil
	}
}

// usage prints the command summary and the experiment registry.
func usage(w io.Writer) {
	fmt.Fprint(w, `usage: catnap <command> [flags]

Commands:
  <experiment>  run one experiment below and print its table
  list          the experiment registry with kinds
  designs       the registered network configurations
  sweep         offered-load sweep of one design over one traffic pattern
  explore       design-space search for the power/latency Pareto front
  trace         summarize a packet trace or a telemetry file

Experiments (the paper's tables and figures, then the studies beyond it):
`)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, e := range catnap.Experiments() {
		if e.Name != "explore" {
			fmt.Fprintf(tw, "  %s\t%s\n", e.Name, e.Description)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "\n'catnap <command> -h' lists a command's flags.")
}
