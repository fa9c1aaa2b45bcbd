package catnap

import (
	"math"
	"reflect"
	"testing"

	"github.com/catnap-noc/catnap/internal/traffic"
)

// TestMeasurementWindowDeltas: two consecutive windows at the same steady
// load must report (nearly) identical quantities — i.e., StopMeasure
// returns deltas, not cumulative totals.
func TestMeasurementWindowDeltas(t *testing.T) {
	sim := mustSim(mustDesign("4NT-128b"))
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(0.1), 1)
	sim.Run(3000) // steady state

	sim.StartMeasure()
	sim.Run(5000)
	r1 := sim.StopMeasure()
	sim.StartMeasure()
	sim.Run(5000)
	r2 := sim.StopMeasure()

	if r1.Cycles != 5000 || r2.Cycles != 5000 {
		t.Fatalf("window lengths %d, %d", r1.Cycles, r2.Cycles)
	}
	if rel(r1.AcceptedThroughput, r2.AcceptedThroughput) > 0.05 {
		t.Errorf("throughput windows differ: %.4f vs %.4f", r1.AcceptedThroughput, r2.AcceptedThroughput)
	}
	if rel(r1.Power.Total, r2.Power.Total) > 0.05 {
		t.Errorf("power windows differ: %.2f vs %.2f", r1.Power.Total, r2.Power.Total)
	}
	if rel(r1.AvgLatency, r2.AvgLatency) > 0.10 {
		t.Errorf("latency windows differ: %.2f vs %.2f", r1.AvgLatency, r2.AvgLatency)
	}
	// Delivered counts must be per-window, not cumulative.
	if r2.PacketsDelivered > 2*r1.PacketsDelivered {
		t.Errorf("second window looks cumulative: %d vs %d", r2.PacketsDelivered, r1.PacketsDelivered)
	}
}

// TestMeasurementCSCDelta: a window opened after long sleep must not
// inherit the pre-window compensated cycles.
func TestMeasurementCSCDelta(t *testing.T) {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.Run(5000) // subnets 1..3 sleep the whole time (no traffic)
	sim.StartMeasure()
	sim.Run(1000)
	r := sim.StopMeasure()
	// 3 of 4 subnets asleep for the whole window: CSC ≈ 75%, and the
	// pre-window 5000 sleeping cycles must not inflate it beyond that.
	if r.CSCPercent < 60 || r.CSCPercent > 76 {
		t.Errorf("windowed CSC = %.1f%%, want ~75%% (delta accounting)", r.CSCPercent)
	}
	// Static power inside the window reflects only 1 of 4 subnets awake
	// plus NI leakage.
	full := sim.Model.StaticPower()
	if r.Power.Static > 0.45*full {
		t.Errorf("windowed static %.1fW too high vs %.1fW full (sleep not credited)", r.Power.Static, full)
	}
}

// TestStopMeasureWithoutStart: a window that StartMeasure never opened
// measures from cycle 0, on a fresh simulator and on one Reset after a
// window of its own, exactly as a window opened at cycle 0 does.
func TestStopMeasureWithoutStart(t *testing.T) {
	cfg := mustDesign("4NT-128b-PG")
	load := traffic.Constant(0.1)

	opened := mustSim(cfg)
	opened.UseSynthetic(traffic.UniformRandom{}, load, 0)
	opened.StartMeasure()
	opened.Run(500)
	want := opened.StopMeasure()

	reused := mustSim(cfg)
	reused.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.3), 200, 300)
	if err := reused.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		sim  *Simulator
	}{{"fresh", mustSim(cfg)}, {"reset", reused}} {
		arm.sim.UseSynthetic(traffic.UniformRandom{}, load, 0)
		arm.sim.Run(500)
		if got := arm.sim.StopMeasure(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: StopMeasure without StartMeasure\ngot  %+v\nwant %+v", arm.name, got, want)
		}
	}
}

// TestRunSyntheticOfferedMatchesSchedule: the offered throughput reported
// must reflect the generator's schedule.
func TestRunSyntheticOfferedMatchesSchedule(t *testing.T) {
	sim := mustSim(mustDesign("1NT-512b"))
	res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.2), 1000, 8000)
	if math.Abs(res.OfferedThroughput-0.2) > 0.01 {
		t.Errorf("offered %.4f, want 0.20", res.OfferedThroughput)
	}
	if math.Abs(res.AcceptedThroughput-0.2) > 0.01 {
		t.Errorf("accepted %.4f, want 0.20 (below saturation)", res.AcceptedThroughput)
	}
}

// TestResultsString smoke-checks the human-readable summary.
func TestResultsString(t *testing.T) {
	sim := mustSim(mustDesign("1NT-512b"))
	res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.05), 500, 1500)
	s := res.String()
	if s == "" || res.Config != "1NT-512b" {
		t.Fatalf("bad summary %q", s)
	}
}

func rel(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d / m
}

// TestConfigErrors: facade-level misconfiguration is rejected, not
// panicked.
func TestConfigErrors(t *testing.T) {
	bad := BaseConfig()
	bad.Selector = SelectorCatnap
	bad.Gating = GatingOff
	bad.Subnets = 4
	bad.Metric = 99
	if _, err := New(bad); err == nil {
		t.Error("invalid metric accepted")
	}
	bad2 := BaseConfig()
	bad2.Rows = 5 // region dim 4 does not tile 5
	bad2.RegionDim = 4
	if _, err := New(bad2); err == nil {
		t.Error("untileable region accepted")
	}
}
