package catnap

// The core stepping benchmark harness: BenchmarkStep times Network.Step
// across the load x subnets x gating matrix, each scenario in both
// stepping modes (the /ref sub-benchmarks run the retained reference
// scan, so `go test -bench Step` compares the incremental path against
// the pre-optimization implementation on the same tree).
// TestCoreBenchGuard is the `make bench-core` entry point: it reruns the
// matrix interleaved min-of-N, writes BENCH_core.json, and enforces the
// regression bounds — the sleep-dominated low-load scenario must step at
// least 3x faster than the reference scan, the saturated scenario at
// least 2x, the idle-gated steady state must allocate exactly 0
// bytes/cycle, idle fast-forward must beat stepping the same idle span
// 100x, and the explore-cached scenario (a small real campaign rerun
// against a warm result cache versus a cold one) must show at least a
// 20x warm-over-cold win with byte-identical frontiers.
//
// All measurements cover the steady state only: simulator construction
// and warmup run outside the timed (and allocation-counted) window, so
// ns/cycle and bytes/cycle are pure stepping costs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/catnap-noc/catnap/internal/traffic"
)

// coreScenario is one point of the benchmark matrix. Scenarios span the
// regimes the optimization cares about: a fully idle gated mesh (every
// router asleep — the O(active) best case), the paper's low-load region,
// the Figure 12 burst schedule (sleep/wake churn), saturation (dense
// occupancy, congestion churn — the no-win-available case), an ungated
// single-subnet design (no power phase work at all), and a fully idle
// mesh under idle fast-forward.
type coreScenario struct {
	name   string
	design string
	sched  traffic.Schedule
	// skip runs the fast arm through Simulator.Run, which fast-forwards
	// idle spans, and makes the ref arm step the same cycles one by one on
	// the incremental path (the baseline idle fast-forward must beat)
	// instead of on the retained reference scan. Every other scenario
	// steps every cycle in BOTH arms: they measure per-cycle stepping
	// cost, and letting the fast arm jump over its idle cycles would
	// quietly turn them into skip benchmarks.
	skip bool
}

const (
	coreBenchWarmup  = 500
	coreBenchMeasure = 4500
)

var coreScenarios = []coreScenario{
	{name: "idle-gated", design: "4NT-128b-PG", sched: traffic.Constant(0)},
	{name: "lowload-gated", design: "4NT-128b-PG", sched: traffic.Constant(0.02)},
	{name: "bursty-gated", design: "4NT-128b-PG", sched: traffic.Fig12Bursts()},
	{name: "saturation-gated", design: "4NT-128b-PG", sched: traffic.Constant(0.45)},
	{name: "ungated-1NT", design: "1NT-512b", sched: traffic.Constant(0.10)},
	// idle-skip measures the event-driven fast-forward win itself: the
	// fully idle gated mesh run through Simulator.Run versus sequential
	// incremental stepping of the same idle cycles (the O(active) path
	// the fast-forward replaces; the reference scan would overstate it).
	{name: "idle-skip", design: "4NT-128b-PG", sched: traffic.Constant(0), skip: true},
}

// buildCoreSim constructs one arm's simulator. Both arms of a scenario
// share the design's seed, so paired runs inject the identical packet
// sequence and any fast/ref divergence is a determinism bug, not noise.
// The ref arm of an incremental scenario runs on the reference scan.
func buildCoreSim(sc coreScenario, ref bool) *Simulator {
	sim := mustSim(mustDesign(sc.design))
	sim.Net.SetReferenceScan(ref && !sc.skip)
	return sim
}

// runCoreArm advances one arm n cycles: Simulator.Run, which skips idle
// spans, on the fast arm of a skip scenario, and a plain Step loop on
// every other arm.
func runCoreArm(sim *Simulator, sc coreScenario, ref bool, n int64) {
	if sc.skip && !ref {
		sim.Run(n)
		return
	}
	for i := int64(0); i < n; i++ {
		sim.Step()
	}
}

// coreRun is one measured steady-state window.
type coreRun struct {
	res     Results
	elapsed time.Duration
	bytes   uint64
}

// runCoreScenario executes one arm: construction and warmup untimed,
// then a timed, allocation-counted measurement window. StartMeasure runs
// before the first ReadMemStats so its own allocations (fresh latency
// histograms) stay out of the bytes/cycle figure.
func runCoreScenario(sc coreScenario, ref bool) coreRun {
	sim := buildCoreSim(sc, ref)
	sim.UseSynthetic(traffic.UniformRandom{}, sc.sched, 0)
	runCoreArm(sim, sc, ref, coreBenchWarmup)
	sim.StartMeasure()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	runCoreArm(sim, sc, ref, coreBenchMeasure)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return coreRun{res: sim.StopMeasure(), elapsed: elapsed, bytes: ms1.TotalAlloc - ms0.TotalAlloc}
}

// BenchmarkStep times the steady-state stepping window per iteration for
// every scenario; the /ref variants use each scenario's baseline arm.
// Construction and warmup run with the timer (and allocation counter)
// stopped, so b/op reports pure per-window stepping allocations —
// idle-gated must report 0 B/op.
func BenchmarkStep(b *testing.B) {
	for _, sc := range coreScenarios {
		for _, ref := range []bool{false, true} {
			name := sc.name
			if ref {
				name += "/ref"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sim := buildCoreSim(sc, ref)
					sim.UseSynthetic(traffic.UniformRandom{}, sc.sched, 0)
					runCoreArm(sim, sc, ref, coreBenchWarmup)
					b.StartTimer()
					runCoreArm(sim, sc, ref, coreBenchMeasure)
				}
				perCycle := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / coreBenchMeasure
				b.ReportMetric(perCycle, "ns/cycle")
			})
		}
	}
}

// exploreBenchOpts is the explore-cached scenario's campaign: a small
// grid of real simulations at the core-bench per-point scale, so the
// cold arm's cost is dominated by simulation exactly like a user
// campaign.
func exploreBenchOpts(cacheDir string) ExperimentOpts {
	return ExperimentOpts{
		Scale: Scale{Warmup: coreBenchWarmup, Measure: coreBenchMeasure},
		Explore: ExploreOpts{
			Space: ExploreSpace{
				Subnets:    []int{1, 4},
				Widths:     []int{128, 512},
				VCDepths:   []int{4},
				TIdles:     []int{4},
				Metrics:    []string{"BFM"},
				Thresholds: []float64{0, 2},
			},
			Grid:     true,
			CacheDir: cacheDir,
		},
	}
}

// runExploreCachedScenario measures the result cache's campaign-rerun
// win: the identical point set evaluated cold (fresh cache directory,
// every point simulated) versus warm (pre-populated directory, every
// point a cache hit), min-of-reps wall clock for both arms. The fronts
// must be byte-identical — the warm arm is only a win if it is also
// exactly right. The row's "cycles" are the campaign's total simulated
// cycles, so ns/cycle stays comparable across report rows; RefMode
// "cold-cache" marks the baseline arm.
func runExploreCachedScenario(t *testing.T, reps int) coreBenchRow {
	t.Helper()
	base := t.TempDir()
	warmDir := filepath.Join(base, "warm")
	totalCycles := float64((coreBenchWarmup + coreBenchMeasure) * 8)

	runOnce := func(dir string) (time.Duration, uint64, *ExploreResult) {
		o := exploreBenchOpts(dir)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		r, err := RunExplore(context.Background(), o)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatalf("explore-cached campaign: %v", err)
		}
		return elapsed, ms1.TotalAlloc - ms0.TotalAlloc, r
	}

	// Prime the warm directory (uncounted) and keep its front as the
	// reference serialization.
	_, _, primed := runOnce(warmDir)
	var want bytes.Buffer
	if err := primed.WriteFront(&want); err != nil {
		t.Fatal(err)
	}

	coldNs, warmNs := time.Duration(1<<63-1), time.Duration(1<<63-1)
	coldBytes, warmBytes := uint64(1<<64-1), uint64(1<<64-1)
	for r := 0; r < reps; r++ {
		coldElapsed, coldAlloc, coldRes := runOnce(filepath.Join(base, fmt.Sprintf("cold-%d", r)))
		if coldRes.Cache.Hits != 0 || coldRes.Cache.Misses != coldRes.Proposed {
			t.Fatalf("cold arm not actually cold: %+v", coldRes.Cache)
		}
		warmElapsed, warmAlloc, warmRes := runOnce(warmDir)
		if warmRes.Cache.Misses != 0 || warmRes.Cache.Hits != warmRes.Proposed {
			t.Fatalf("warm arm not fully cached: %+v", warmRes.Cache)
		}
		var cold, warm bytes.Buffer
		if err := coldRes.WriteFront(&cold); err != nil {
			t.Fatal(err)
		}
		if err := warmRes.WriteFront(&warm); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold.Bytes(), want.Bytes()) || !bytes.Equal(warm.Bytes(), want.Bytes()) {
			t.Fatal("explore-cached arms produced different frontiers")
		}
		if coldElapsed < coldNs {
			coldNs = coldElapsed
		}
		if warmElapsed < warmNs {
			warmNs = warmElapsed
		}
		if coldAlloc < coldBytes {
			coldBytes = coldAlloc
		}
		if warmAlloc < warmBytes {
			warmBytes = warmAlloc
		}
	}

	row := coreBenchRow{
		FastNsPerCycle:    float64(warmNs.Nanoseconds()) / totalCycles,
		RefNsPerCycle:     float64(coldNs.Nanoseconds()) / totalCycles,
		FastBytesPerCycle: float64(warmBytes) / totalCycles,
		RefBytesPerCycle:  float64(coldBytes) / totalCycles,
		RefMode:           "cold-cache",
	}
	row.Speedup = row.RefNsPerCycle / row.FastNsPerCycle
	t.Logf("%-26s warm %8.1f ns/cycle %7.1f B/cycle  cold %8.1f ns/cycle %7.1f B/cycle  speedup %.2fx",
		"explore-cached", row.FastNsPerCycle, row.FastBytesPerCycle,
		row.RefNsPerCycle, row.RefBytesPerCycle, row.Speedup)
	return row
}

// The sweep-reuse scenario: a Fig6-style designs x loads grid evaluated
// point by point on one worker, reuse-pool arm (one SimPool recycling a
// single simulator via Simulator.Reset) versus fresh-construction arm
// (catnap.New per point — what every sweep did before the reuse pool).
// The per-point windows are deliberately short and the loads sit in the
// paper's near-idle energy-proportional region: the scenario measures
// per-point provisioning overhead, which is what the pool optimizes, not
// stepping cost (campaign-scale points amortize construction; explore
// and quick-mode campaigns with many short points do not). Both arms run
// the same seeded traffic, so their Results must match exactly. One pass
// over the grid takes a few milliseconds, too short to time reliably, so
// the guard repeats it sweepReusePasses times inside each timed arm.
var (
	sweepReuseDesigns = []string{"1NT-512b", "2NT-256b", "4NT-128b", "4NT-128b-PG"}
	sweepReuseLoads   = []float64{0, 0.002, 0.004}
)

const (
	sweepReuseWarmup  = 10
	sweepReuseMeasure = 30
	// sweepReusePasses makes the faster (reuse) arm take about 50 ms on a
	// 2-vCPU x86 host, where one pass takes under 2 ms.
	sweepReusePasses = 32
)

// runSweepReuseArm evaluates the whole grid passes times and returns the
// wall clock, allocated bytes, and every point's Results of the last pass
// in grid order. Each pass of the reuse arm starts from an empty pool, as
// a sweep worker does, so every pass repeats the same work.
func runSweepReuseArm(reuse bool, passes int) (time.Duration, uint64, []Results, error) {
	out := make([]Results, len(sweepReuseDesigns)*len(sweepReuseLoads))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for p := 0; p < passes; p++ {
		var pool *SimPool
		if reuse {
			pool = NewSimPool()
		}
		i := 0
		for _, d := range sweepReuseDesigns {
			cfg := mustDesign(d)
			for _, load := range sweepReuseLoads {
				// A nil pool degrades to plain New — the fresh-construction arm.
				sim, err := pool.Get(cfg)
				if err != nil {
					return 0, 0, nil, err
				}
				out[i] = sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(load), sweepReuseWarmup, sweepReuseMeasure)
				i++
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return elapsed, ms1.TotalAlloc - ms0.TotalAlloc, out, nil
}

// runSweepReuseScenario measures both arms min-of-reps, each arm passes
// grid passes long, and alternates which arm runs first so that a drift
// in machine speed cannot favour one arm. It asserts per-point
// bit-identity: simulator reuse is only a win if every reused point
// reports exactly what a fresh simulator would.
func runSweepReuseScenario(t *testing.T, reps, passes int) coreBenchRow {
	t.Helper()
	points := len(sweepReuseDesigns) * len(sweepReuseLoads) * passes
	totalCycles := float64(points * (sweepReuseWarmup + sweepReuseMeasure))
	// One untimed pass per arm warms the precompute cache, freelists, and
	// allocator before the measured reps.
	for _, reuse := range []bool{false, true} {
		if _, _, _, err := runSweepReuseArm(reuse, 1); err != nil {
			t.Fatalf("sweep-reuse warmup: %v", err)
		}
	}
	freshNs, reuseNs := time.Duration(1<<63-1), time.Duration(1<<63-1)
	freshBytes, reuseBytes := uint64(1<<64-1), uint64(1<<64-1)
	for r := 0; r < reps; r++ {
		var fe, re time.Duration
		var fb, rb uint64
		var fres, rres []Results
		var ferr, rerr error
		if r%2 == 0 {
			fe, fb, fres, ferr = runSweepReuseArm(false, passes)
			re, rb, rres, rerr = runSweepReuseArm(true, passes)
		} else {
			re, rb, rres, rerr = runSweepReuseArm(true, passes)
			fe, fb, fres, ferr = runSweepReuseArm(false, passes)
		}
		if ferr != nil {
			t.Fatalf("sweep-reuse fresh arm: %v", ferr)
		}
		if rerr != nil {
			t.Fatalf("sweep-reuse reuse arm: %v", rerr)
		}
		for i := range fres {
			if !reflect.DeepEqual(fres[i], rres[i]) {
				t.Fatalf("sweep-reuse point %d diverged between fresh and reuse arms", i)
			}
		}
		if fres[len(fres)-1].AcceptedThroughput <= 0 {
			t.Fatal("sweep-reuse produced no traffic on its highest-load point")
		}
		if fe < freshNs {
			freshNs = fe
		}
		if re < reuseNs {
			reuseNs = re
		}
		if fb < freshBytes {
			freshBytes = fb
		}
		if rb < reuseBytes {
			reuseBytes = rb
		}
	}
	row := coreBenchRow{
		FastNsPerCycle:    float64(reuseNs.Nanoseconds()) / totalCycles,
		RefNsPerCycle:     float64(freshNs.Nanoseconds()) / totalCycles,
		FastBytesPerCycle: float64(reuseBytes) / totalCycles,
		RefBytesPerCycle:  float64(freshBytes) / totalCycles,
		FastPointsPerSec:  float64(points) / reuseNs.Seconds(),
		RefPointsPerSec:   float64(points) / freshNs.Seconds(),
		RefMode:           "fresh-construction",
	}
	row.Speedup = row.RefNsPerCycle / row.FastNsPerCycle
	t.Logf("%-26s reuse %8.0f pts/s %8.1f B/cycle  fresh %8.0f pts/s %8.1f B/cycle  speedup %.2fx",
		"sweep-reuse", row.FastPointsPerSec, row.FastBytesPerCycle,
		row.RefPointsPerSec, row.RefBytesPerCycle, row.Speedup)
	return row
}

// TestSweepReuseSmoke runs one rep of the sweep-reuse scenario in the
// default test suite: it asserts the bit-identity of the reuse-pool and
// fresh-construction arms on every grid point (the property the reuse
// plumbing must never lose), not the wall-clock ratio — the ≥2x
// points/sec guard lives in TestCoreBenchGuard behind CORE_BENCH=1 like
// every other wall-clock assertion.
func TestSweepReuseSmoke(t *testing.T) {
	runSweepReuseScenario(t, 1, 1)
}

// coreBenchRow is one scenario's entry in BENCH_core.json. The ref
// columns are that scenario's baseline measured on the same tree and
// machine — the retained reference scan (the original implementation,
// kept verbatim) for the incremental scenarios, incremental stepping
// without fast-forward for idle-skip — so the speedup column is
// machine-independent.
type coreBenchRow struct {
	FastNsPerCycle    float64 `json:"fast_ns_per_cycle"`
	RefNsPerCycle     float64 `json:"ref_ns_per_cycle"`
	Speedup           float64 `json:"speedup"`
	FastBytesPerCycle float64 `json:"fast_bytes_per_cycle"`
	RefBytesPerCycle  float64 `json:"ref_bytes_per_cycle"`
	RefMode           string  `json:"ref_mode"`
	// Points/sec columns, set only by throughput-style scenarios
	// (sweep-reuse): whole sweep points completed per second per arm.
	// For those scenarios ns/cycle spreads per-point provisioning cost
	// over simulated cycles and is not a stepping cost, so readers should
	// prefer these columns when present.
	FastPointsPerSec float64 `json:"fast_points_per_sec,omitempty"`
	RefPointsPerSec  float64 `json:"ref_points_per_sec,omitempty"`
}

// TestCoreBenchGuard is the `make bench-core` guard: min-of-N wall clock
// and allocation for every scenario in both arms, interleaved so machine
// noise hits both arms alike, written to BENCH_core.json. It fails if the
// incremental path steps the low-load scenario less than 3x faster than
// the reference scan, if the saturated scenario steps less than 2x
// faster, if the idle-gated steady state allocates at all, or if the
// idle-skip, explore-cached, or sweep-reuse scenarios miss their bounds.
// Gated behind CORE_BENCH=1 because wall-clock assertions do not belong
// in the default -race test run.
func TestCoreBenchGuard(t *testing.T) {
	if os.Getenv("CORE_BENCH") == "" {
		t.Skip("set CORE_BENCH=1 (or run `make bench-core`) to run the core stepping benchmark")
	}

	const reps = 5
	type arm struct {
		sc  coreScenario
		ref bool
	}
	var arms []arm
	for _, sc := range coreScenarios {
		arms = append(arms, arm{sc, false}, arm{sc, true})
	}

	bestNs := make([]time.Duration, len(arms))
	bestBytes := make([]uint64, len(arms))
	for i := range arms {
		bestNs[i] = time.Duration(1<<63 - 1)
		bestBytes[i] = 1<<64 - 1
	}
	results := make([]Results, len(arms))
	for r := 0; r < reps; r++ {
		for i, a := range arms {
			run := runCoreScenario(a.sc, a.ref)
			if a.sc.name != "idle-gated" && a.sc.name != "idle-skip" && run.res.AcceptedThroughput <= 0 {
				t.Fatalf("%s produced no traffic", a.sc.name)
			}
			if run.elapsed < bestNs[i] {
				bestNs[i] = run.elapsed
			}
			if run.bytes < bestBytes[i] {
				bestBytes[i] = run.bytes
			}
			results[i] = run.res
		}
	}

	report := struct {
		Cycles     int64                   `json:"measure_cycles_per_run"`
		Warmup     int64                   `json:"warmup_cycles_per_run"`
		Reps       int                     `json:"reps_min_of"`
		GOMAXPROCS int                     `json:"gomaxprocs"`
		NumCPU     int                     `json:"num_cpu"`
		Scenarios  map[string]coreBenchRow `json:"scenarios"`
	}{
		Cycles: coreBenchMeasure, Warmup: coreBenchWarmup, Reps: reps,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Scenarios: map[string]coreBenchRow{},
	}

	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / coreBenchMeasure }
	for i := 0; i < len(arms); i += 2 {
		sc := arms[i].sc
		refMode := "reference-scan"
		if sc.skip {
			refMode = "sequential-incremental"
		}
		row := coreBenchRow{
			FastNsPerCycle:    perCycle(bestNs[i]),
			RefNsPerCycle:     perCycle(bestNs[i+1]),
			FastBytesPerCycle: float64(bestBytes[i]) / coreBenchMeasure,
			RefBytesPerCycle:  float64(bestBytes[i+1]) / coreBenchMeasure,
			RefMode:           refMode,
		}
		row.Speedup = row.RefNsPerCycle / row.FastNsPerCycle

		report.Scenarios[sc.name] = row
		t.Logf("%-26s fast %8.1f ns/cycle %7.1f B/cycle  ref %8.1f ns/cycle %7.1f B/cycle  speedup %.2fx",
			sc.name, row.FastNsPerCycle, row.FastBytesPerCycle,
			row.RefNsPerCycle, row.RefBytesPerCycle, row.Speedup)

		// Both arms inject the same seeded packet sequence; the modes are
		// bit-identical by the differential suite, so the measured windows
		// must agree exactly.
		if f, r := results[i], results[i+1]; f.AcceptedThroughput != r.AcceptedThroughput ||
			f.AvgLatency != r.AvgLatency || f.Power.Total != r.Power.Total {
			t.Errorf("%s: fast and ref arms diverged (accepted %.6f vs %.6f, latency %.3f vs %.3f)",
				sc.name, f.AcceptedThroughput, r.AcceptedThroughput, f.AvgLatency, r.AvgLatency)
		}
	}

	report.Scenarios["explore-cached"] = runExploreCachedScenario(t, reps)
	report.Scenarios["sweep-reuse"] = runSweepReuseScenario(t, reps, sweepReusePasses)

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("core stepping benchmark written to BENCH_core.json")

	if sp := report.Scenarios["lowload-gated"].Speedup; sp < 3.0 {
		t.Errorf("lowload-gated speedup %.2fx below the 3x guard (fast %.1f ns/cycle, ref %.1f ns/cycle)",
			sp, report.Scenarios["lowload-gated"].FastNsPerCycle, report.Scenarios["lowload-gated"].RefNsPerCycle)
	}
	// Saturation is where switch allocation dominates: the per-output
	// request masks must keep it at least 2x cheaper than the scan.
	if row := report.Scenarios["saturation-gated"]; row.Speedup < 2.0 {
		t.Errorf("saturation-gated speedup %.2fx below the 2x guard (fast %.1f ns/cycle, ref %.1f ns/cycle)",
			row.Speedup, row.FastNsPerCycle, row.RefNsPerCycle)
	}
	if by := report.Scenarios["idle-gated"].FastBytesPerCycle; by != 0 {
		t.Errorf("idle-gated steady state allocated %.1f bytes/cycle, want exactly 0", by)
	}
	if row := report.Scenarios["idle-skip"]; row.Speedup < 100 {
		t.Errorf("idle-skip speedup %.2fx below the 100x guard (fast %.1f ns/cycle, sequential %.1f ns/cycle)",
			row.Speedup, row.FastNsPerCycle, row.RefNsPerCycle)
	}
	if row := report.Scenarios["explore-cached"]; row.Speedup < 20 {
		t.Errorf("explore-cached speedup %.2fx below the 20x guard (warm %.1f ns/cycle, cold %.1f ns/cycle): the result cache must make campaign reruns nearly free",
			row.Speedup, row.FastNsPerCycle, row.RefNsPerCycle)
	}
	if row := report.Scenarios["sweep-reuse"]; row.Speedup < 2.0 {
		t.Errorf("sweep-reuse %.2fx below the 2x points/sec guard (reuse %.0f pts/s, fresh %.0f pts/s): in-place reset must keep per-point provisioning at least 2x cheaper than fresh construction",
			row.Speedup, row.FastPointsPerSec, row.RefPointsPerSec)
	}
}
