package catnap

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// fig6Golden pins the exact Fig6 rows the pre-telemetry tree produced at
// testScale/testLoads (captured on main before the telemetry subsystem
// landed). With telemetry off the hooks are nil and the cycle loop must
// stay bit-identical — any drift here means the instrumentation leaked
// into the simulation.
var fig6Golden = []Fig6Point{
	{"1NT-512b", 0.05, 0.049652777777777775, 20.12062937062937},
	{"1NT-512b", 0.2, 0.19907986111111112, 20.8896834394349},
	{"2NT-256b", 0.05, 0.049652777777777775, 21.326923076923077},
	{"2NT-256b", 0.2, 0.19928819444444446, 23.090425995295757},
	{"4NT-128b", 0.05, 0.04973958333333333, 23.67085514834206},
	{"4NT-128b", 0.2, 0.19946180555555557, 27.29497780485682},
	{"8NT-64b", 0.05, 0.04977430555555556, 28.484478549005928},
	{"8NT-64b", 0.2, 0.19946180555555557, 36.8688310557925},
}

func TestFig6GoldenBitIdenticalTelemetryOff(t *testing.T) {
	got, err := runFig6(context.Background(), ExperimentOpts{Scale: testScale, Loads: testLoads})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fig6Golden) {
		t.Fatalf("telemetry-off Fig6 rows drifted from the pre-telemetry golden values\ngot:  %+v\nwant: %+v", got, fig6Golden)
	}
}

// telemetrySample runs one fixed synthetic measurement, optionally
// instrumented.
func telemetrySample(rec *telemetry.Recorder) Results {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	if rec != nil {
		sim.EnableTelemetry(rec, "sample")
	}
	return sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.10), 300, 900)
}

// TestTelemetryObservesWithoutPerturbing is the on-vs-off identity
// check: attaching a full recorder must not change a single result
// bit, while still seeing the run's sleep/wake activity.
func TestTelemetryObservesWithoutPerturbing(t *testing.T) {
	off := telemetrySample(nil)
	rec := telemetry.NewRecorder(telemetry.Options{})
	on := telemetrySample(rec)
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("telemetry attach perturbed results\noff: %+v\non:  %+v", off, on)
	}
	if n := rec.Log().Count(telemetry.EventRouterSleep); n == 0 {
		t.Fatal("instrumented run recorded no router.sleep events")
	}
	if n := rec.Log().Count(telemetry.EventRouterWake); n == 0 {
		t.Fatal("instrumented run recorded no router.wake events")
	}
	if len(rec.Metrics()) == 0 {
		t.Fatal("instrumented run exported no metric points")
	}
}

// Telemetry known answers: the SHA-256 of every file a recorder writes
// for two fixed runs. The goldens pin experiment Data only, so these are
// what hold the collector's samples (occupancy, BFM, NI queue, power
// states, throughput) and the event stream to their values.
const (
	// telemetryMetricsDigest and telemetryEventsDigest are the metrics
	// and events JSONL of telemetryPinRun.
	telemetryMetricsDigest = "cc19d3566a709e3a3af0c812ecf75818f26d08029ac72565637db03fe5ccc6fc"
	telemetryEventsDigest  = "cc3dcf57bc973ae7e63a2af3248a7f21a82357e295429c439b8679f7fad28dcf"
	// fig12MetricsDigest is the metrics JSONL of fig12 at its defaults.
	fig12MetricsDigest = "2b3d830044ac8749ba068c795ff0b8b7e757f81bc41e6ae1d081efa6ece79428"
)

// telemetryPinRun runs 4NT-128b-PG under uniform random traffic at 0.30
// for 200 + 800 cycles with a recorder attached, and returns the metrics
// and events it wrote as JSONL.
func telemetryPinRun(t *testing.T) (metrics, events []byte) {
	t.Helper()
	var m, e bytes.Buffer
	rec := telemetry.NewRecorder(telemetry.Options{Events: &e})
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.EnableTelemetry(rec, "pin")
	sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.30), 200, 800)
	if err := rec.WriteMetricsJSONL(&m); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), e.Bytes()
}

// TestTelemetryKnownAnswers compares the recorder's files for a fixed
// synthetic run and for fig12 with their pinned digests. A change that
// moves a telemetry value, or the set of metric points or events, fails
// it; a refactor of how the collector samples must not.
func TestTelemetryKnownAnswers(t *testing.T) {
	digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	metrics, events := telemetryPinRun(t)
	if got := digest(metrics); got != telemetryMetricsDigest {
		t.Errorf("metrics JSONL digest %s, want %s", got, telemetryMetricsDigest)
	}
	if got := digest(events); got != telemetryEventsDigest {
		t.Errorf("events JSONL digest %s, want %s", got, telemetryEventsDigest)
	}

	rec := telemetry.NewRecorder(telemetry.Options{})
	if _, err := RunExperiment(context.Background(), "fig12", ExperimentOpts{Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	var f bytes.Buffer
	if err := rec.WriteMetricsJSONL(&f); err != nil {
		t.Fatal(err)
	}
	if got := digest(f.Bytes()); got != fig12MetricsDigest {
		t.Errorf("fig12 metrics JSONL digest %s, want %s", got, fig12MetricsDigest)
	}
}

func TestExperimentOptsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts ExperimentOpts
		want string // substring naming the offending field
	}{
		{"negative warmup", ExperimentOpts{Scale: Scale{Warmup: -1}}, "ExperimentOpts.Scale.Warmup"},
		{"negative measure", ExperimentOpts{Scale: Scale{Measure: -5}}, "ExperimentOpts.Scale.Measure"},
		{"load too high", ExperimentOpts{Loads: []float64{0.1, 1.5}}, "ExperimentOpts.Loads[1]"},
		{"load zero", ExperimentOpts{Loads: []float64{0}}, "ExperimentOpts.Loads[0]"},
		{"load NaN", ExperimentOpts{Loads: []float64{math.NaN()}}, "ExperimentOpts.Loads[0]"},
		{"bad pattern", ExperimentOpts{Pattern: "zigzag"}, "ExperimentOpts.Pattern"},
		{"bad mix", ExperimentOpts{Mixes: []string{"NoSuchMix"}}, "ExperimentOpts.Mixes[0]"},
		{"bad design", ExperimentOpts{Designs: []string{"9NT-1b"}}, "ExperimentOpts.Designs[0]"},
		{"negative total", ExperimentOpts{Total: -1}, "ExperimentOpts.Total"},
		{"window over total", ExperimentOpts{Total: 100, Window: 200}, "ExperimentOpts.Window"},
		{"negative jobs", ExperimentOpts{Sweep: SweepOptions{Jobs: -1}}, "ExperimentOpts.Sweep.Jobs"},
		{"negative timeout", ExperimentOpts{Sweep: SweepOptions{Timeout: -time.Second}}, "ExperimentOpts.Sweep.Timeout"},
		{"explore dup axis", ExperimentOpts{Explore: ExploreOpts{Space: ExploreSpace{Widths: []int{128, 128}}}}, "ExperimentOpts.Explore.Space"},
		{"explore bad metric", ExperimentOpts{Explore: ExploreOpts{Space: ExploreSpace{Metrics: []string{"Vibes"}}}}, "ExperimentOpts.Explore.Space.Metrics"},
		{"explore load too high", ExperimentOpts{Explore: ExploreOpts{Load: 1.5}}, "ExperimentOpts.Explore.Load"},
		{"explore load NaN", ExperimentOpts{Explore: ExploreOpts{Load: math.NaN()}}, "ExperimentOpts.Explore.Load"},
		{"explore negative batch", ExperimentOpts{Explore: ExploreOpts{Batch: -1}}, "ExperimentOpts.Explore.Batch"},
		{"explore frac out of range", ExperimentOpts{Explore: ExploreOpts{ExploreFrac: 2}}, "ExperimentOpts.Explore.ExploreFrac"},
		{"explore frac NaN", ExperimentOpts{Explore: ExploreOpts{ExploreFrac: math.NaN()}}, "ExperimentOpts.Explore.ExploreFrac"},
		{"explore min-accepted out of range", ExperimentOpts{Explore: ExploreOpts{MinAccepted: 1.1}}, "ExperimentOpts.Explore.MinAccepted"},
		{"explore min-accepted NaN", ExperimentOpts{Explore: ExploreOpts{MinAccepted: math.NaN()}}, "ExperimentOpts.Explore.MinAccepted"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error naming %s", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
	if err := (ExperimentOpts{}).Validate(); err != nil {
		t.Errorf("zero options must validate, got %v", err)
	}
	// RunExperiment rejects before running anything.
	if _, err := RunExperiment(context.Background(), "fig6", ExperimentOpts{Loads: []float64{2}}); err == nil {
		t.Error("RunExperiment accepted invalid options")
	}
	// fig12 never completes a window longer than its default 3000-cycle
	// run, so it rejects one up front; other experiments keep accepting
	// a long telemetry window.
	if _, err := RunExperiment(context.Background(), "fig12", ExperimentOpts{Window: 5000}); err == nil || !strings.Contains(err.Error(), "ExperimentOpts.Window") {
		t.Errorf("fig12 with Window 5000: err = %v, want an error naming ExperimentOpts.Window", err)
	}
	if _, err := RunExperiment(context.Background(), "table2", ExperimentOpts{Window: 5000}); err != nil {
		t.Errorf("table2 with Window 5000: %v", err)
	}
}

// TestRunExperimentFig12Telemetry exercises the acceptance path: fig12
// with a recorder must yield a windowed per-subnet power-state series
// and at least one sleep/wake event carrying its cause.
func TestRunExperimentFig12Telemetry(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Options{})
	res, err := RunExperiment(context.Background(), "fig12",
		ExperimentOpts{Total: 1500, Window: 50, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("fig12 produced no rows")
	}

	windows := map[int]int{} // subnet -> power-state series windows seen
	asleep := map[[2]int64]float64{}
	saved := map[[2]int64]float64{}
	for _, p := range rec.Metrics() {
		if p.Cycle < 0 {
			continue
		}
		switch p.Metric {
		case telemetry.MetricActiveRouterCycles:
			windows[p.Subnet]++
		case telemetry.MetricAsleepRouterCycles:
			asleep[[2]int64{int64(p.Subnet), p.Cycle}] = p.Value
		case telemetry.MetricLeakageSavedPJ:
			saved[[2]int64{int64(p.Subnet), p.Cycle}] = p.Value
		}
	}
	for s := 0; s < 4; s++ {
		if windows[s] == 0 {
			t.Errorf("no windowed %s series for subnet %d", telemetry.MetricActiveRouterCycles, s)
		}
	}
	// The derived energy series must cover exactly the asleep windows and
	// scale them by the model's per-router leakage rate.
	if len(saved) != len(asleep) || len(saved) == 0 {
		t.Fatalf("leakage_saved_pj has %d windows, asleep series has %d", len(saved), len(asleep))
	}
	leak := mustSim(mustDesign("4NT-128b-PG")).Model.RouterLeakPJ()
	for k, a := range asleep {
		if got, want := saved[k], a*leak; got != want {
			t.Fatalf("subnet %d cycle %d: leakage_saved_pj = %g, want %g (asleep %g x %g pJ)",
				k[0], k[1], got, want, a, leak)
		}
	}

	var slept, woke bool
	for _, e := range rec.Log().Events() {
		switch e.Type {
		case telemetry.EventRouterSleep:
			if e.Cause == "" {
				t.Fatalf("sleep event without cause: %+v", e)
			}
			slept = true
		case telemetry.EventRouterWake:
			if e.Cause == "" {
				t.Fatalf("wake event without cause: %+v", e)
			}
			woke = true
		}
	}
	if !slept || !woke {
		t.Fatalf("expected sleep and wake events, got slept=%v woke=%v", slept, woke)
	}
}

// TestTelemetryOverheadGuard is the make bench-telemetry guard: it times
// a fixed run in three arms — base (no telemetry anywhere), off (a
// recorder exists but is never attached, the flags-unset path), and on
// (fully instrumented) — interleaved, min-of-9, then writes
// BENCH_telemetry.json and fails if the off arm costs more than 3% over
// base. The on arm's overhead is reported, not bounded. Gated behind
// TELEMETRY_GUARD=1 because wall-clock assertions do not belong in the
// default -race test run.
func TestTelemetryOverheadGuard(t *testing.T) {
	if os.Getenv("TELEMETRY_GUARD") == "" {
		t.Skip("set TELEMETRY_GUARD=1 (or run `make bench-telemetry`) to run the overhead guard")
	}

	// O(active) stepping (see DESIGN.md §4e) cut the wall time of this
	// fixed scenario ~2.3x, which pushed the original 3000-cycle runs
	// under the harness noise floor: constant-size perturbations (GC
	// cycles landing just inside vs outside the timed window) exceeded
	// the old 2% relative guard with no code difference between arms.
	// Longer runs restore the signal-to-noise; the GC barrier below
	// makes each arm's collection count depend only on its own
	// allocation; and the threshold is set so its *absolute* bar
	// (3% of ~68us/cycle = ~2.1us/cycle) stays tighter than the one the
	// guard originally enforced (2% of ~155us/cycle = ~3.1us/cycle).
	const warmup, measure = 300, 8700
	const cycles = warmup + measure
	arms := []struct {
		name string
		run  func() Results
	}{
		{"base", func() Results {
			sim := mustSim(mustDesign("4NT-128b-PG"))
			// Structural zero-cost: no tracer, no extra observer beyond
			// the congestion detector the design itself installs.
			if sim.Net.PowerTracer() != nil {
				t.Fatal("PowerTracer set before any telemetry attach")
			}
			if n := sim.Net.Observers(); n != 1 {
				t.Fatalf("base network has %d observers, want 1 (the detector)", n)
			}
			return sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.10), warmup, measure)
		}},
		{"off", func() Results {
			_ = telemetry.NewRecorder(telemetry.Options{}) // built but never attached
			sim := mustSim(mustDesign("4NT-128b-PG"))
			return sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.10), warmup, measure)
		}},
		{"on", func() Results {
			rec := telemetry.NewRecorder(telemetry.Options{})
			sim := mustSim(mustDesign("4NT-128b-PG"))
			sim.EnableTelemetry(rec, "guard")
			return sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.10), warmup, measure)
		}},
	}

	// Min-of-9: on a shared machine, background-load bursts can deny one
	// arm a quiet slot for a whole 5-rep pass; 9 interleaved reps give
	// each arm enough draws that its minimum reflects the code, not the
	// neighbours.
	const reps = 9
	best := make([]time.Duration, len(arms))
	for i := range best {
		best[i] = time.Duration(1<<63 - 1)
	}
	for r := 0; r < reps; r++ {
		for i, arm := range arms {
			// Settle the heap so GC pacing inside the timed region is
			// driven by this run's allocation, not the previous arm's
			// garbage.
			runtime.GC()
			start := time.Now()
			res := arm.run()
			d := time.Since(start)
			if res.AcceptedThroughput <= 0 {
				t.Fatalf("%s arm produced no traffic", arm.name)
			}
			if d < best[i] {
				best[i] = d
			}
		}
	}

	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / cycles }
	base, off, on := perCycle(best[0]), perCycle(best[1]), perCycle(best[2])
	offPct := 100 * (off - base) / base
	onPct := 100 * (on - base) / base

	report := map[string]float64{
		"base_ns_per_cycle": base,
		"off_ns_per_cycle":  off,
		"on_ns_per_cycle":   on,
		"off_overhead_pct":  offPct,
		"on_overhead_pct":   onPct,
	}
	out := os.Getenv("BENCH_TELEMETRY_OUT")
	if out == "" {
		out = "BENCH_telemetry.json"
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("base %.1f ns/cycle, off %+.2f%%, on %+.2f%% (%s)", base, offPct, onPct, out)

	if offPct > 3 {
		t.Fatalf("telemetry-off overhead %.2f%% exceeds the 3%% guard (base %.1f, off %.1f ns/cycle)", offPct, base, off)
	}
}
