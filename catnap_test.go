package catnap

import (
	"context"
	"math"
	"testing"

	"github.com/catnap-noc/catnap/internal/power"
	"github.com/catnap-noc/catnap/internal/traffic"
)

func TestDesignRegistry(t *testing.T) {
	names := Designs()
	if len(names) < 10 {
		t.Fatalf("only %d designs registered: %v", len(names), names)
	}
	for _, n := range names {
		cfg, err := Design(n)
		if err != nil {
			t.Fatalf("Design(%q): %v", n, err)
		}
		if cfg.Name != n {
			t.Errorf("Design(%q).Name = %q", n, cfg.Name)
		}
		if _, err := New(cfg); err != nil {
			t.Errorf("New(Design(%q)): %v", n, err)
		}
	}
	if _, err := Design("bogus"); err == nil {
		t.Error("Design(bogus) should fail")
	}
}

// TestNewRejectsUnrunnableConfigs pins that New refuses, with an error,
// configurations that used to panic inside construction or a run, or to
// report non-finite power: a negative mesh dimension, a one-node mesh
// (no destination for synthetic traffic), and supply voltages that are
// not finite and positive.
func TestNewRejectsUnrunnableConfigs(t *testing.T) {
	for _, c := range []struct {
		name   string
		design string
		mutate func(*Config)
	}{
		{"rows -1", "4NT-128b-PG", func(c *Config) { c.Rows = -1 }},
		{"one-node mesh", "1NT-512b", func(c *Config) { c.Rows, c.Cols, c.RegionDim = 1, 1, 1 }},
		{"voltage -1", "4NT-128b-PG", func(c *Config) { c.VoltageV = -1 }},
		{"voltage NaN", "4NT-128b-PG", func(c *Config) { c.VoltageV = math.NaN() }},
		{"voltage +Inf", "4NT-128b-PG", func(c *Config) { c.VoltageV = math.Inf(1) }},
	} {
		cfg := mustDesign(c.design)
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", c.name)
		}
	}
}

// TestNewVCAnswers pins New's accept/reject answer on 4NT-128b-PG for 1
// to 5 VCs under every combination of AppTraffic, Torus and FBfly. Each
// string lists the eight combinations in the order AppTraffic, Torus,
// FBfly = 000, 001, ..., 111; "+" is accepted and "-" rejected.
func TestNewVCAnswers(t *testing.T) {
	want := []string{
		1: "++------",
		2: "+++-----",
		3: "+++-----",
		4: "+++-++--",
		5: "+++-++--",
	}
	for vcs := 1; vcs <= 5; vcs++ {
		var got []byte
		for combo := 0; combo < 8; combo++ {
			cfg := mustDesign("4NT-128b-PG")
			cfg.VCs = vcs
			cfg.AppTraffic = combo&4 != 0
			cfg.Torus = combo&2 != 0
			cfg.FBfly = combo&1 != 0
			answer := byte('+')
			if _, err := New(cfg); err != nil {
				answer = '-'
			}
			got = append(got, answer)
		}
		if string(got) != want[vcs] {
			t.Errorf("VCs %d: New answers %s, want %s", vcs, got, want[vcs])
		}
	}
}

func TestDesignVoltages(t *testing.T) {
	// Table 2: the evaluated designs run at 0.750 V (512b) and 0.625 V
	// (128b) to hit 2 GHz.
	single := mustDesign("1NT-512b")
	multi := mustDesign("4NT-128b-PG")
	if single.VoltageV < 0.70 || single.VoltageV > 0.80 {
		t.Errorf("1NT-512b voltage = %.3f, want ~0.750", single.VoltageV)
	}
	if multi.VoltageV < 0.58 || multi.VoltageV > 0.67 {
		t.Errorf("4NT-128b voltage = %.3f, want ~0.625", multi.VoltageV)
	}
	if multi.VoltageV >= single.VoltageV {
		t.Errorf("narrow routers must reach 2 GHz at lower voltage: %.3f vs %.3f", multi.VoltageV, single.VoltageV)
	}
}

func TestCatnapLowLoadBehaviour(t *testing.T) {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.03), 2000, 8000)

	if res.SubnetShare[0] < 0.95 {
		t.Errorf("subnet 0 share = %.3f at low load, want ~1 (shares %v)", res.SubnetShare[0], res.SubnetShare)
	}
	if res.CSCPercent < 50 {
		t.Errorf("CSC = %.1f%% at 0.03 load, want substantial (paper: ~74%%)", res.CSCPercent)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	if res.AcceptedThroughput < 0.028 {
		t.Errorf("accepted throughput %.4f below offered 0.03: Catnap must not drop goodput at low load", res.AcceptedThroughput)
	}
}

func TestGatingCutsPowerAtLowLoad(t *testing.T) {
	load := traffic.Constant(0.03)
	run := func(design string) Results {
		sim := mustSim(mustDesign(design))
		return sim.RunSynthetic(traffic.UniformRandom{}, load, 2000, 8000)
	}
	multiPG := run("4NT-128b-PG")
	multi := run("4NT-128b")
	singlePG := run("1NT-512b-PG")
	single := run("1NT-512b")

	// Catnap Multi-NoC gating must save a large share of static power.
	if multiPG.Power.Static > 0.5*multi.Power.Static {
		t.Errorf("Catnap static %.1fW vs ungated %.1fW: want >50%% saving at low load",
			multiPG.Power.Static, multi.Power.Static)
	}
	// Single-NoC gating saves much less (the paper's core observation).
	singleSaving := 1 - singlePG.Power.Static/single.Power.Static
	multiSaving := 1 - multiPG.Power.Static/multi.Power.Static
	if multiSaving <= singleSaving {
		t.Errorf("Multi-NoC static saving %.2f should exceed Single-NoC's %.2f", multiSaving, singleSaving)
	}
	// And Single-NoC pays a larger latency penalty for gating.
	singlePenalty := singlePG.AvgLatency / single.AvgLatency
	multiPenalty := multiPG.AvgLatency / multi.AvgLatency
	t.Logf("static: single %.1f→%.1fW (%.0f%%), multi %.1f→%.1fW (%.0f%%); latency penalty single %.2fx multi %.2fx; CSC single %.1f%% multi %.1f%%",
		single.Power.Static, singlePG.Power.Static, singleSaving*100,
		multi.Power.Static, multiPG.Power.Static, multiSaving*100,
		singlePenalty, multiPenalty, singlePG.CSCPercent, multiPG.CSCPercent)
	if multiPG.CSCPercent <= singlePG.CSCPercent {
		t.Errorf("Multi-NoC CSC %.1f%% should exceed Single-NoC CSC %.1f%%", multiPG.CSCPercent, singlePG.CSCPercent)
	}
}

func TestFig12SubnetsOpenDuringBurst(t *testing.T) {
	res, err := RunExperiment(context.Background(), "fig12", ExperimentOpts{Total: 3000, Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	points := res.Data.([]Fig12Point)
	if len(points) < 50 {
		t.Fatalf("got %d samples", len(points))
	}
	// Before the first burst (cycle < 1000): subnet 0 dominates.
	var preShare, burstShare float64
	var preN, burstN int
	var burstAccepted float64
	for _, p := range points {
		switch {
		case p.Cycle > 500 && p.Cycle <= 1000:
			preShare += p.SubnetShare[0]
			preN++
		case p.Cycle > 1200 && p.Cycle <= 1500:
			burstShare += p.SubnetShare[0]
			burstAccepted += p.Accepted
			burstN++
		}
	}
	preShare /= float64(preN)
	burstShare /= float64(burstN)
	burstAccepted /= float64(burstN)
	if preShare < 0.9 {
		t.Errorf("pre-burst subnet-0 share %.2f, want ~1", preShare)
	}
	if burstShare > 0.6 {
		t.Errorf("during burst subnet-0 share %.2f, want load spread across subnets", burstShare)
	}
	// Accepted throughput must ramp toward the 0.30 offered burst.
	if burstAccepted < 0.20 {
		t.Errorf("late-burst accepted throughput %.3f, want ramp toward 0.30", burstAccepted)
	}
}

func TestFig7Runner(t *testing.T) {
	res, err := RunExperiment(context.Background(), "fig7", ExperimentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]Fig7Row)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[2].Breakdown.Total >= rows[1].Breakdown.Total {
		t.Errorf("voltage-scaled Multi-NoC (%.1fW) should beat 0.750V (%.1fW)", rows[2].Breakdown.Total, rows[1].Breakdown.Total)
	}
}

func TestProfilesCharacterization(t *testing.T) {
	res, err := RunExperiment(context.Background(), "profiles", ExperimentOpts{Scale: Scale{Warmup: 500, Measure: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]ProfileRow)
	if len(rows) != 35 {
		t.Fatalf("characterized %d benchmarks, want 35", len(rows))
	}
	byName := map[string]ProfileRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.IPC <= 0 || r.PacketsPerNodeCycle <= 0 {
			t.Errorf("%s: degenerate characterization %+v", r.Benchmark, r)
		}
	}
	// The MPKI ordering must survive the closed loop at the extremes:
	// mcf (95 MPKI) demands far more network than gromacs (1.2).
	if byName["mcf"].PacketsPerNodeCycle < 4*byName["gromacs"].PacketsPerNodeCycle {
		t.Errorf("mcf demand %.3f not >> gromacs %.3f",
			byName["mcf"].PacketsPerNodeCycle, byName["gromacs"].PacketsPerNodeCycle)
	}
	if byName["mcf"].IPC >= byName["gromacs"].IPC {
		t.Errorf("mcf IPC %.2f should trail gromacs %.2f", byName["mcf"].IPC, byName["gromacs"].IPC)
	}
}

func TestHeteroRunner(t *testing.T) {
	res, err := RunExperiment(context.Background(), "hetero", ExperimentOpts{Scale: Scale{Warmup: 2000, Measure: 6000}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]HeteroRow)
	if len(rows) != 2 {
		t.Fatalf("got %d variants", len(rows))
	}
	for _, r := range rows {
		if r.Results.PacketsDelivered == 0 || r.Results.SystemIPC <= 0 {
			t.Fatalf("%s: stalled (%+v)", r.Variant, r.Results)
		}
	}
	// Regional detection must not be worse on the non-uniform placement;
	// the paper's claim is that it reacts earlier than local-only.
	regional, local := rows[0].Results, rows[1].Results
	if regional.P99Latency > local.P99Latency*1.5 {
		t.Errorf("regional p99 %.0f much worse than local-only %.0f", regional.P99Latency, local.P99Latency)
	}
	t.Logf("regional: lat %.1f p99 %.0f IPC %.1f | local-only: lat %.1f p99 %.0f IPC %.1f",
		regional.AvgLatency, regional.P99Latency, regional.SystemIPC,
		local.AvgLatency, local.P99Latency, local.SystemIPC)
}

func TestTraceIntegration(t *testing.T) {
	var buf testBuffer
	sim := mustSim(mustDesign("4NT-128b-PG"))
	tw := sim.EnableTrace(&buf)
	res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.05), 500, 2000)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() == 0 || res.PacketsDelivered == 0 {
		t.Fatal("no packets traced")
	}
	if buf.n == 0 {
		t.Fatal("nothing written")
	}
}

// testBuffer is a minimal io.Writer counting bytes.
type testBuffer struct{ n int }

func (b *testBuffer) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }

func TestTorusDesigns(t *testing.T) {
	mesh := mustSim(mustDesign("4NT-128b-PG"))
	torus := mustSim(mustDesign("4NT-128b-PG-torus"))
	mres := mesh.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.05), 1500, 6000)
	tres := torus.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.05), 1500, 6000)
	if tres.PacketsDelivered == 0 {
		t.Fatal("torus delivered nothing")
	}
	// Wraparound halves the average distance: latency must improve.
	if tres.AvgLatency >= mres.AvgLatency {
		t.Errorf("torus latency %.1f should beat mesh %.1f at low load", tres.AvgLatency, mres.AvgLatency)
	}
	// The Catnap story survives: most traffic in subnet 0, solid CSC.
	if tres.SubnetShare[0] < 0.9 || tres.CSCPercent < 40 {
		t.Errorf("torus Catnap behaviour off: share0=%.2f CSC=%.1f%%", tres.SubnetShare[0], tres.CSCPercent)
	}
	// App traffic needs per-class VC masks, which torus mode reserves.
	bad := mustDesign("4NT-128b-PG-torus")
	bad.AppTraffic = true
	if _, err := New(bad); err == nil {
		t.Error("torus + app-traffic class masks should be rejected")
	}
}

func TestTable2Runner(t *testing.T) {
	res, err := RunExperiment(context.Background(), "table2", ExperimentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]power.Table2Row)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.FreqGHz <= 0 {
			t.Errorf("%v: non-positive frequency", r)
		}
	}
}

// TestFBflyDesignTakesEffect guards the facade→engine lowering: the
// flattened-butterfly design must actually build a 2-hop network (a
// regression here once produced mesh results under an fbfly name).
func TestFBflyDesignTakesEffect(t *testing.T) {
	sim := mustSim(mustDesign("4NT-128b-PG-fbfly"))
	if got := sim.Net.Topo().Name(); got != "fbfly" {
		t.Fatalf("topology = %q, want fbfly", got)
	}
	if h := sim.Net.Topo().Hops(0, 63); h != 2 {
		t.Fatalf("corner hops = %d, want 2", h)
	}
	torus := mustSim(mustDesign("4NT-128b-PG-torus"))
	if got := torus.Net.Topo().Name(); got != "torus" {
		t.Fatalf("topology = %q, want torus", got)
	}
}
