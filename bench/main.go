// Command catnapbench is the end-to-end sweep benchmark: it times the
// sweeps the paper's results come from (load curves, the application-mix
// grid, seed-replicated low-load points, a design-space campaign), checks
// that every sweep reproduces its reference results, and prints one JSON
// result line.
//
//	go run . -workload sat-sweep -seed 1 -seconds 25 -trace 0
//
// Untraced runs report the end-to-end metrics; -trace 1 runs the traced
// point path and reports the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// probesPerSweep is how many times an untraced run sets up from process
// start before each timed sweep; setup_s is the median of all of them.
const probesPerSweep = 3

// probeEnv makes the process a set-up probe: it provisions the named
// workload's first point, simulates one cycle, prints the wall clock in
// Unix nanoseconds, and exits. Its value is "<workload> <seed> <tiny>".
const probeEnv = "CATNAPBENCH_SETUP_PROBE"

// headroom bounds everything a run does besides its timed sweeps.
const headroom = 150 * time.Second

//go:embed digests.json
var pinnedDigests []byte

// config is one run's settings.
type config struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	jobs    int
	tiny    bool
	// spansPath receives the traced run's spans as JSONL when non-empty.
	spansPath string
	// updateDigests names a digests file to record this run's digest in,
	// instead of checking the pinned one.
	updateDigests string
}

// hostFacts identify the machine and build a number came from.
type hostFacts struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Jobs        int    `json:"jobs"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func currentHost(jobs int) hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: jobs,
		GoVersion: runtime.Version(), VCSRevision: "unknown", VCSModified: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run found; its detail line precedes the result.
type report struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        bool      `json:"trace"`
	Host         hostFacts `json:"host"`
	Digest       string    `json:"digest"`
	PinnedDigest string    `json:"pinned_digest,omitempty"`
	Sweeps       int       `json:"sweeps"`
	SweepWallsS  []float64 `json:"sweep_walls_s"`
	SetupS       []float64 `json:"setup_probes_s,omitempty"`
	result

	layers layerStats
}

func main() {
	if spec := os.Getenv(probeEnv); spec != "" {
		os.Exit(probeMain(spec))
	}
	name := flag.String("workload", "", "workload to run: sat-sweep, lowload-reps, app-mixes, explore-campaign, or all")
	seed := flag.Uint64("seed", 1, "input seed; 1 is the default and 2 is held out for confirming claims")
	secs := flag.Float64("seconds", 10, "how long the timed sweeps run; at least one sweep always runs")
	trace := flag.Int("trace", 0, "1 runs the traced point path and reports per-layer metrics")
	jobs := flag.Int("jobs", min(2, runtime.NumCPU()), "sweep workers; values above NumCPU are refused")
	spans := flag.String("spans", "", "with -trace 1, write per-point spans as JSONL to this file")
	update := flag.String("update-digests", "", "record this run's digest in this digests file instead of checking it")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("-trace = %d, want 0 or 1", *trace)
	}
	if n := runtime.NumCPU(); *jobs > n {
		fmt.Fprintf(os.Stderr, "catnapbench: refusing -jobs %d above NumCPU %d; running %d jobs\n", *jobs, n, n)
		*jobs = n
	}
	if *jobs < 1 {
		fatalf("-jobs = %d, want >= 1", *jobs)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		fmt.Fprintf(os.Stderr, "catnapbench: refusing GOMAXPROCS %d above NumCPU %d; using %d\n", runtime.GOMAXPROCS(0), n, n)
		runtime.GOMAXPROCS(n)
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:], *spans))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	c := config{w: w, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1,
		jobs: *jobs, spansPath: *spans, updateDigests: *update}

	ctx, cancel := context.WithTimeout(context.Background(), c.seconds+headroom)
	defer cancel()
	rep, err := run(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catnapbench: %s: %v\n", c.w.name, err)
		os.Exit(1)
	}
	printTable(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(rep.result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "catnapbench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll re-executes the benchmark once per workload, so that set-up time
// and peak memory are each workload's own. A flag's last occurrence wins,
// so the workload (and its spans file) are appended to the given flags.
func runAll(args []string, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "catnapbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		childArgs := append(slices.Clone(args), "-workload", w.name)
		if spans != "" {
			childArgs = append(childArgs, "-spans", strings.TrimSuffix(spans, ".jsonl")+"-"+w.name+".jsonl")
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "catnapbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// run executes one workload. An untraced run takes the set-up probes and
// then runs timed sweeps on per-worker pools until the time is up. A
// traced run first runs a reference sweep that builds every simulator
// fresh, then alternates untraced and traced sweeps. Every sweep must
// reproduce the reference sweep's records (the first sweep's, untraced),
// and the reference digest must match the pinned one.
func run(ctx context.Context, c config) (*report, error) {
	rep := &report{Workload: c.w.name, Seed: c.seed, Trace: c.trace, Host: currentHost(c.jobs)}
	sw := c.w.build(c.seed, c.tiny)

	var setups []time.Duration
	var ref *sweepResult
	if c.trace {
		var err error
		if ref, err = sw.run(ctx, runOpts{jobs: c.jobs, fresh: true}); err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = ref.points, ref.failed
	}

	check := func(r *sweepResult) {
		rep.Attempted += r.points
		if ref == nil {
			ref = r
			rep.Failed += r.failed
		} else {
			rep.Failed += max(r.failed, mismatched(ref, r))
		}
		rep.Sweeps++
		rep.SweepWallsS = append(rep.SweepWallsS, r.wall.Seconds())
	}
	ids := new(atomic.Int64)
	epoch := time.Now()
	var untraced, traced []*sweepResult
	var rssMB []float64
	var allocBytes uint64
	var gcCycles uint32
	for start := time.Now(); ; {
		// Collect the last sweep's garbage now, so that neither the probes
		// nor this sweep compete with it.
		debug.FreeOSMemory()
		if !c.trace {
			// Probing between sweeps samples set-up over the whole run
			// rather than one moment of it.
			for range probesPerSweep {
				d, err := probeSetup(ctx, c)
				if err != nil {
					return nil, err
				}
				setups = append(setups, d)
			}
		}
		resetPeakRSS()
		u, err := sw.run(ctx, runOpts{jobs: c.jobs})
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, peakRSSMB())
		check(u)
		untraced = append(untraced, u)
		last := u.wall
		if c.trace {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			t, err := sw.run(ctx, runOpts{jobs: c.jobs, traced: true, spans: c.spansPath != "", traceIDs: ids, epoch: epoch})
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			allocBytes += after.TotalAlloc - before.TotalAlloc
			gcCycles += after.NumGC - before.NumGC
			check(t)
			traced = append(traced, t)
			last += t.wall
		}
		if time.Since(start)+last > c.seconds {
			break
		}
	}

	rep.SetupS = seconds(setups)
	rep.Digest = digest(ref.records)
	pinnedOK, err := checkDigest(c, rep)
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && pinnedOK
	if !pinnedOK {
		rep.Failed = rep.Attempted
	}
	if c.trace {
		rep.Metrics = emit(perLayer, perLayerValues(traced, untraced, c.jobs, allocBytes, gcCycles, ref.rows))
		for _, t := range traced {
			rep.layers.merge(&t.layers)
		}
		if c.spansPath != "" {
			if err := writeSpans(c.spansPath, traced); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Metrics = emit(endToEnd, endToEndValues(untraced, setups, rssMB))
	}
	return rep, nil
}

// mismatched counts r's points whose records differ from the reference
// sweep's. A campaign has one record, its front, standing for all its
// points.
func mismatched(ref, r *sweepResult) int64 {
	if len(r.records) != len(ref.records) {
		return r.points
	}
	var n int64
	for i := range r.records {
		if !bytes.Equal(r.records[i], ref.records[i]) {
			n++
		}
	}
	return n * r.points / int64(len(r.records))
}

// digest hashes a sweep's records in point order.
func digest(records [][]byte) string {
	h := sha256.New()
	for _, r := range records {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares the run's digest with the pinned one for its
// workload and seed, or records it when c.updateDigests is set. Seeds
// without a pinned digest, and tiny runs, pass.
func checkDigest(c config, rep *report) (bool, error) {
	if c.tiny {
		return true, nil
	}
	if c.updateDigests != "" {
		return true, updateDigest(c.updateDigests, c.w.name, c.seed, rep.Digest)
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		return false, fmt.Errorf("digests.json: %w", err)
	}
	rep.PinnedDigest = pins[c.w.name][strconv.FormatUint(c.seed, 10)]
	if rep.PinnedDigest != "" && rep.PinnedDigest != rep.Digest {
		fmt.Fprintf(os.Stderr, "catnapbench: %s seed %d: digest %s, pinned %s\n", c.w.name, c.seed, rep.Digest, rep.PinnedDigest)
		return false, nil
	}
	return true, nil
}

func updateDigest(path, name string, seed uint64, d string) error {
	pins := map[string]map[string]string{}
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err == nil {
		if err := json.Unmarshal(b, &pins); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if pins[name] == nil {
		pins[name] = map[string]string{}
	}
	pins[name][strconv.FormatUint(seed, 10)] = d
	b, err = json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// probeSetup measures set-up from process start: it starts a copy of this
// program in probe mode and takes the time from the start to the clock
// reading the copy printed after its first simulated cycle.
func probeSetup(ctx context.Context, c config) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %t", probeEnv, c.w.name, c.seed, c.tiny))
	cmd.Stderr = os.Stderr
	start := time.Now()
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("set-up probe printed %q: %w", b, err)
	}
	return time.Duration(ns - start.UnixNano()), nil
}

// probeMain is the set-up probe's whole life.
func probeMain(spec string) int {
	var name string
	var seed uint64
	var tiny bool
	if _, err := fmt.Sscanf(spec, "%s %d %t", &name, &seed, &tiny); err != nil {
		fmt.Fprintf(os.Stderr, "catnapbench: %s=%q: %v\n", probeEnv, spec, err)
		return 2
	}
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catnapbench: %v\n", err)
		return 2
	}
	if err := w.build(seed, tiny).first(); err != nil {
		fmt.Fprintf(os.Stderr, "catnapbench: set-up probe: %v\n", err)
		return 1
	}
	fmt.Println(time.Now().UnixNano())
	return 0
}

// resetPeakRSS restarts the kernel's peak-resident-set count (VmHWM), so
// that each sweep's peak is its own. Where that is unsupported the peak
// stays the process's, which only overstates a sweep's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB since the
// last resetPeakRSS, or the memory obtained from the OS where /proc is
// unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func writeSpans(path string, traced []*sweepResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range traced {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// printTable writes the human-readable report to stderr.
func printTable(rep *report) {
	h := rep.Host
	fmt.Fprintf(os.Stderr, "%s seed %d trace=%t: %d sweeps, %d/%d points failed, correct=%t\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Sweeps, rep.Failed, rep.Attempted, rep.Correct)
	fmt.Fprintf(os.Stderr, "  host: NumCPU %d, GOMAXPROCS %d, jobs %d, %s, rev %s (modified %s)\n",
		h.NumCPU, h.GOMAXPROCS, h.Jobs, h.GoVersion, h.VCSRevision, h.VCSModified)
	fmt.Fprintf(os.Stderr, "  digest %s\n", rep.Digest)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	if !rep.Trace {
		return
	}
	if m := rep.Metrics; m["model.light_csc_pct"].Value != 0 {
		fmt.Fprintf(os.Stderr, "  model (reduced scale, seed %d): power reduction %.1f%% (paper ~44), perf cost %.1f%% (paper ~5), Light CSC %.1f%% (paper ~70)\n",
			rep.Seed, m["model.power_reduction_pct"].Value, m["model.perf_cost_pct"].Value, m["model.light_csc_pct"].Value)
	}
	l := &rep.layers
	c := &l.calls
	fmt.Fprintf(os.Stderr, "  span breakdown over %d traced points (self = span minus its children):\n", l.points)
	fmt.Fprintf(os.Stderr, "    %-20s %10s %10s %7s\n", "span", "total_s", "self_s", "share")
	children := l.reset + l.attach + l.warmup + l.open + l.measure + l.close
	row := func(name string, total, self time.Duration) {
		fmt.Fprintf(os.Stderr, "    %-20s %10.4f %10.4f %6.1f%%\n", name, total.Seconds(), self.Seconds(), 100*ratio(total.Seconds(), l.point.Seconds()))
	}
	row("point", l.point, l.point-children)
	row("  sim.reset", l.reset, l.reset)
	row("  sim.attach", l.attach, l.attach)
	row("  sim.warmup", l.warmup, l.warmup)
	row("  sim.measure_open", l.open, l.open)
	row("  sim.measure", l.measure, l.measure)
	row("  sim.measure_close", l.close, l.close)
	fmt.Fprintf(os.Stderr, "    per-cycle calls inside sim.warmup and sim.measure:\n")
	for _, cs := range []struct {
		name string
		s    *callStats
	}{{"noc.step", &c.step}, {"noc.skip", &c.skip}, {"traffic.tick", &c.tick}} {
		fmt.Fprintf(os.Stderr, "    %-20s %10.4f %10d calls %6.1f%%\n", cs.name, cs.s.total.Seconds(), cs.s.count, 100*ratio(cs.s.total.Seconds(), l.point.Seconds()))
	}
	loop := l.warmup + l.measure - c.step.total - c.skip.total - c.tick.total
	fmt.Fprintf(os.Stderr, "    %-20s %10.4f %16s %6.1f%%\n", "cycle-loop self", loop.Seconds(), "", 100*ratio(loop.Seconds(), l.point.Seconds()))
	fmt.Fprintf(os.Stderr, "  tracing overhead: traced/untraced sweep wall %.3fx\n", rep.Metrics["trace.overhead"].Value)
}
