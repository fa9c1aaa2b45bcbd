package catnap

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/traffic"
)

// testScale keeps engine tests fast while still exercising warmup +
// measurement windows.
var testScale = Scale{Warmup: 300, Measure: 900}

var testLoads = []float64{0.05, 0.20}

// TestFig6ParallelMatchesSequential is the golden determinism test: the
// parallel engine must produce byte-for-byte the rows the seed's
// sequential loop produced, because every point owns its seeded RNG.
// The expected side replicates the original sequential runner verbatim.
func TestFig6ParallelMatchesSequential(t *testing.T) {
	var want []Fig6Point
	for _, d := range Fig6Designs {
		for _, load := range testLoads {
			sim := mustSim(mustDesign(d))
			res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(load), testScale.Warmup, testScale.Measure)
			want = append(want, Fig6Point{Design: d, Offered: load, Accepted: res.AcceptedThroughput, Latency: res.AvgLatency})
		}
	}
	for _, jobs := range []int{1, 4} {
		got, err := runFig6(context.Background(), ExperimentOpts{Scale: testScale, Loads: testLoads, Sweep: SweepOptions{Jobs: jobs}})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: parallel results diverge from sequential seed path\ngot:  %+v\nwant: %+v", jobs, got, want)
		}
	}
}

// TestAppWorkloadsBaselineNormalization exercises the appended-baseline
// path: when the design list omits 1NT-512b, the engine must still
// normalize against a dedicated baseline run per mix.
func TestAppWorkloadsBaselineNormalization(t *testing.T) {
	sc := Scale{Warmup: 150, Measure: 300}
	rows, err := runAppWorkloads(context.Background(), ExperimentOpts{
		Scale: sc, Mixes: []string{"Light"}, Designs: []string{"4NT-128b-PG"}, Sweep: SweepOptions{Jobs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (baseline runs must not leak into the matrix)", len(rows))
	}
	r := rows[0]
	if r.Design != "4NT-128b-PG" || r.Workload != "Light" {
		t.Fatalf("row %+v", r)
	}
	if r.NormalizedPerf <= 0 {
		t.Fatalf("NormalizedPerf = %v, want > 0 from the dedicated baseline run", r.NormalizedPerf)
	}
}

// TestRunCtxCancellation: a cancelled context stops the run between
// cycles and surfaces the context error from the Ctx entry points.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := mustSim(mustDesign("4NT-128b-PG"))
	if err := sim.RunCtx(ctx, 100000); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want Canceled", err)
	}
	if _, err := sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(0.05), 1000, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSyntheticCtx err = %v, want Canceled", err)
	}
	if _, err := runFig6(ctx, ExperimentOpts{Scale: testScale, Loads: testLoads, Sweep: SweepOptions{Jobs: 2}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("runFig6 err = %v, want Canceled", err)
	}
}

// cancelAt is an observer that cancels its context at one cycle.
type cancelAt struct {
	at     int64
	cancel context.CancelFunc
}

func (c cancelAt) AfterCycle(now int64) {
	if now == c.at {
		c.cancel()
	}
}

// TestRunCtxCancelledInsideShortCall: a context cancelled inside a call
// shorter than the polling interval must still fail that call, at the
// latest when it returns.
func TestRunCtxCancelledInsideShortCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.Net.AddObserver(cancelAt{at: 10, cancel: cancel})
	if err := sim.RunCtx(ctx, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v at cycle %d, want Canceled", err, sim.Net.Now())
	}
	if err := sim.RunCtx(context.Background(), 10); err != nil {
		t.Fatalf("RunCtx with a live context: %v", err)
	}
}

// TestRunAppCancellation covers the closed-loop entry point.
func TestRunAppCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := mustDesign("4NT-128b-PG")
	cfg.AppTraffic = true
	sim := mustSim(cfg)
	if _, err := sim.RunApp(ctx, "Light", 1000, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunApp err = %v, want Canceled", err)
	}
	// And the mix name stays a clean error, not a panic.
	sim2 := mustSim(mustDesign("4NT-128b-PG"))
	if _, err := sim2.RunApp(context.Background(), "NoSuchMix", 10, 10); err == nil {
		t.Fatal("RunApp accepted an unknown mix")
	}
}

// TestExperimentRegistry checks the registry lists every experiment the
// old hand-rolled CLI switch knew, with metadata, and that unknown
// names produce an error naming the valid choices.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig2", "table2", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "headline", "profiles", "hetero", "topology"}
	names := ExperimentNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %q", w)
		}
	}
	for _, e := range Experiments() {
		if e.Description == "" || e.Kind == "" {
			t.Errorf("experiment %q lacks metadata: %+v", e.Name, e)
		}
	}
	_, err := RunExperiment(context.Background(), "fig99", ExperimentOpts{})
	if err == nil || !strings.Contains(err.Error(), "fig6") {
		t.Fatalf("unknown-experiment error should list valid choices, got: %v", err)
	}
}

// TestRunExperimentTable2 runs the cheapest registry entry end to end
// and checks the rendered table matches the typed data.
func TestRunExperimentTable2(t *testing.T) {
	res, err := RunExperiment(context.Background(), "table2", ExperimentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "table2" || len(res.Rows) == 0 || len(res.Header) == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, row := range res.Rows {
		if len(row) != len(res.Header) {
			t.Fatalf("row width %d != header width %d", len(row), len(res.Header))
		}
	}
	if res.Data == nil {
		t.Fatal("typed data missing")
	}
}

// TestRunExperimentFig6 runs a sweep-backed registry entry at tiny scale
// and checks cancellation propagates through RunExperiment.
func TestRunExperimentFig6(t *testing.T) {
	res, err := RunExperiment(context.Background(), "fig6", ExperimentOpts{
		Scale: testScale, Loads: testLoads, Sweep: SweepOptions{Jobs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rows); got != len(Fig6Designs)*len(testLoads) {
		t.Fatalf("got %d rows", got)
	}
	pts, ok := res.Data.([]Fig6Point)
	if !ok || len(pts) != len(res.Rows) {
		t.Fatalf("typed data mismatch: %T", res.Data)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiment(ctx, "fig6", ExperimentOpts{Scale: testScale, Loads: testLoads}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunExperiment err = %v", err)
	}
}

// TestFig12HonorsCancellation: fig12 steps one simulator outside the
// sweep engine, so it must poll the context itself rather than run its
// whole schedule and report success.
func TestFig12HonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunExperiment(ctx, "fig12", ExperimentOpts{Total: 20000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fig12 err = %v, want Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled fig12 returned %d rows, want none", len(res.Rows))
	}
}

// TestSweepPanicIsReported: a panicking sweep point surfaces as an error
// naming the point instead of killing the sweep goroutines.
func TestSweepPanicIsReported(t *testing.T) {
	old := Fig11Policies
	defer func() { Fig11Policies = old }()
	Fig11Policies = []Fig11Policy{
		{"RR", func() Config { return mustDesign("4NT-128b-PG-RR") }},
		{"broken", func() Config { panic("policy config exploded") }},
	}
	_, err := RunExperiment(context.Background(), "fig11", ExperimentOpts{
		Scale: Scale{Warmup: 100, Measure: 200}, Loads: []float64{0.05}, Sweep: SweepOptions{Jobs: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not reported cleanly: %v", err)
	}
}

// TestFig11UnknownPatternError: the user-reachable pattern name errors
// up front, listing the valid choices, instead of panicking.
func TestFig11UnknownPatternError(t *testing.T) {
	_, err := RunExperiment(context.Background(), "fig11", ExperimentOpts{Pattern: "no-such-pattern"})
	if err == nil || !strings.Contains(err.Error(), "transpose") {
		t.Fatalf("want an error listing valid patterns, got: %v", err)
	}
}
