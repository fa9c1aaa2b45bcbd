package catnap

import (
	"reflect"
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// These tests pin idle fast-forward at the public Simulator surface: with
// the default execution mode (IdleSkip on), full runs — results, windowed
// telemetry series, and the event log — must be bit-identical to the
// reference scan stepping every cycle, including when measurement and
// telemetry window boundaries land inside skipped spans.

// skipGapSched offers two bursts separated by long zero-load gaps, then
// goes permanently idle, so a run spends most of its cycles in spans the
// fast-forward path can jump over.
func skipGapSched() traffic.Schedule {
	return traffic.Piecewise(
		traffic.Phase{Until: 250, Load: 0.15},
		traffic.Phase{Until: 900, Load: 0},
		traffic.Phase{Until: 1150, Load: 0.25},
		traffic.Phase{Until: 1 << 62, Load: 0},
	)
}

// skipSample runs one fixed synthetic measurement on the power-gated
// Catnap design. reference selects the scan-based no-skip arm; rec, when
// non-nil, attaches full telemetry. Warmup and measure are chosen so the
// StartMeasure boundary (cycle 300) and the run end (cycle 2100) both
// fall inside zero-load gaps — deadlines the skipping arm must land on
// exactly, not jump past.
func skipSample(t *testing.T, reference bool, rec *telemetry.Recorder) Results {
	t.Helper()
	cfg := mustDesign("4NT-128b-PG")
	cfg.NoIdleSkip = reference
	sim := mustSim(cfg)
	if reference {
		m := sim.ExecMode()
		m.ReferenceScan = true
		sim.SetExecMode(m)
	}
	if rec != nil {
		sim.EnableTelemetry(rec, "skip-sample")
	}
	return sim.RunSynthetic(traffic.UniformRandom{}, skipGapSched(), 300, 1800)
}

// TestIdleSkipResultsBitIdentical compares every Results field between
// the default (skipping) mode and the reference scan with skipping off.
func TestIdleSkipResultsBitIdentical(t *testing.T) {
	ref := skipSample(t, true, nil)
	fast := skipSample(t, false, nil)
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("idle fast-forward changed results\nref:  %+v\nfast: %+v", ref, fast)
	}
}

// TestIdleSkipTelemetryAcrossWindows uses a telemetry window width (37)
// co-prime with every phase boundary of the schedule, so skipped spans
// start and end mid-window and cross many boundaries. Metric points and
// the event log must match the per-cycle reference exactly.
func TestIdleSkipTelemetryAcrossWindows(t *testing.T) {
	refRec := telemetry.NewRecorder(telemetry.Options{Window: 37})
	fastRec := telemetry.NewRecorder(telemetry.Options{Window: 37})
	ref := skipSample(t, true, refRec)
	fast := skipSample(t, false, fastRec)
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("results diverged with telemetry attached\nref:  %+v\nfast: %+v", ref, fast)
	}
	refM, fastM := refRec.Metrics(), fastRec.Metrics()
	if len(refM) != len(fastM) {
		t.Fatalf("metric point counts differ: ref %d vs fast %d", len(refM), len(fastM))
	}
	for i := range refM {
		if refM[i] != fastM[i] {
			t.Fatalf("metric point %d diverges:\nref:  %+v\nfast: %+v", i, refM[i], fastM[i])
		}
	}
	if len(refM) == 0 {
		t.Fatal("reference run exported no metric points")
	}
	refE, fastE := refRec.Log().Events(), fastRec.Log().Events()
	if !reflect.DeepEqual(refE, fastE) {
		t.Fatalf("event logs diverge: ref %d events, fast %d events", len(refE), len(fastE))
	}
	if len(refE) == 0 {
		t.Fatal("reference run logged no events")
	}
}

// TestIdleSkipExecModeFlipsMidRun drives the Simulator through segmented
// runs with SetExecMode changes at the segment boundaries — skipping
// disarmed mid-gap, reference scan through the second burst, skipping
// re-armed for the idle tail — and checks the final results against an
// uninterrupted reference run of the same total length.
func TestIdleSkipExecModeFlipsMidRun(t *testing.T) {
	ref := skipSample(t, true, nil)

	cfg := mustDesign("4NT-128b-PG")
	sim := mustSim(cfg)
	sim.UseSynthetic(traffic.UniformRandom{}, skipGapSched(), 0)
	segment := func(n int64, m noc.ExecMode) {
		sim.SetExecMode(m)
		sim.Run(n)
	}
	base := sim.ExecMode() // default: incremental, recycling, IdleSkip on
	sim.Run(300)
	sim.StartMeasure()
	segment(300, noc.ExecMode{PacketRecycling: base.PacketRecycling}) // skip off, mid-gap
	segment(600, noc.ExecMode{ReferenceScan: true})                   // reference scan through burst 2
	segment(900, base)                                                // back to the default for the idle tail
	fast := sim.StopMeasure()
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("mid-run SetExecMode flips changed results\nref:  %+v\nfast: %+v", ref, fast)
	}
}

// TestIdleSkipActuallySkips guards against the suite going vacuous: the
// fast arm of the samples above must fast-forward a substantial share of
// its 2100 cycles. It watches TrySkipIdle through an attached span
// recorder that participates in (never bounds) skipping.
func TestIdleSkipActuallySkips(t *testing.T) {
	cfg := mustDesign("4NT-128b-PG")
	sim := mustSim(cfg)
	rec := &skipSpanRecorder{}
	sim.Net.AddObserver(rec)
	sim.RunSynthetic(traffic.UniformRandom{}, skipGapSched(), 300, 1800)
	if rec.cycles < 500 {
		t.Fatalf("skipped only %d of 2100 cycles; fast-forward never engaged on ~1600 idle cycles", rec.cycles)
	}
}

// skipSpanRecorder counts skipped cycles without constraining the skips.
type skipSpanRecorder struct{ cycles int64 }

func (r *skipSpanRecorder) AfterCycle(now int64)                  {}
func (r *skipSpanRecorder) NextIdleEvent(now int64) (int64, bool) { return noc.SkipHorizon, true }
func (r *skipSpanRecorder) SkipIdle(from, to int64)               { r.cycles += to - from }
