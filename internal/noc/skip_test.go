package noc_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// The idle fast-forward differentials pin the tentpole property of the
// event-driven skipping path: jumping a fully-quiescent network straight
// to its next event must be bit-identical to stepping every idle cycle —
// same per-cycle state stream (the probe replays its hash over skipped
// spans), same transition order, same power totals and CSC — under every
// gating flavor, execution mode, and mid-run mode flip.

// gappedBursts is a bursty schedule whose zero-load gaps are long enough
// (hundreds of cycles, versus TIdleDetect=4 and a checkWheel of 6 slots)
// for every router to sleep and the network to fall fully quiescent, so
// skipped spans cross both staging-wheel and check-wheel wraparounds many
// times. offset shifts every phase boundary, sliding where skips begin
// and end relative to the wheels' slot alignment.
func gappedBursts(offset int64) traffic.Schedule {
	return traffic.Piecewise(
		traffic.Phase{Until: 300 + offset, Load: 0.20},
		traffic.Phase{Until: 1100 + offset, Load: 0},
		traffic.Phase{Until: 1400 + offset, Load: 0.30},
		traffic.Phase{Until: 2600 + offset, Load: 0},
		traffic.Phase{Until: 2900 + offset, Load: 0.05},
		traffic.Phase{Until: 1 << 62, Load: 0},
	)
}

const skipCycles = 3600

// TestIdleSkipMatchesReferenceScan is the core skip differential: with
// idle fast-forward armed, runs over gapped traffic must reproduce the
// reference scan bit for bit for every gating flavor that admits
// skipping — and must actually skip (the trailing zero-load phase alone
// is ~700 cycles of full quiescence).
func TestIdleSkipMatchesReferenceScan(t *testing.T) {
	for _, gating := range []string{"catnap", "baseline", "none"} {
		ref := diffRunWith(t, diffOpts{gating: gating, ref: true, sched: gappedBursts(0), cycles: skipCycles})
		fast := diffRunWith(t, diffOpts{gating: gating, skip: true, sched: gappedBursts(0), cycles: skipCycles})
		compareFingerprints(t, gating+"/skip", ref, fast)
		if fast.skipped < 500 {
			t.Errorf("%s: skipped only %d cycles; fast-forward never engaged on ~2000 idle cycles", gating, fast.skipped)
		}
	}
}

// TestIdleSkipNonEpochedPolicyVetoes pins the safety default: a gating
// policy that does not expose PolicyEpoch is re-polled every cycle, so
// the network must never report quiescence — zero skipped cycles — while
// still matching the reference exactly.
func TestIdleSkipNonEpochedPolicyVetoes(t *testing.T) {
	ref := diffRunWith(t, diffOpts{gating: "opaque", ref: true, sched: gappedBursts(0), cycles: skipCycles})
	fast := diffRunWith(t, diffOpts{gating: "opaque", skip: true, sched: gappedBursts(0), cycles: skipCycles})
	compareFingerprints(t, "opaque/skip", ref, fast)
	if fast.skipped != 0 {
		t.Errorf("opaque (non-epoched) gating: skipped %d cycles, want 0 — the every-cycle polling fallback was bypassed", fast.skipped)
	}
}

// TestIdleSkipWheelWraparound slides the burst boundaries by co-prime
// offsets so skips enter and leave at varying alignments of the staging
// wheel and check wheel, including spans that wrap both wheels many
// times. Any stranded wheel entry (a pending event jumped past, to be
// misapplied a revolution later) diverges the per-cycle hash stream.
func TestIdleSkipWheelWraparound(t *testing.T) {
	for _, offset := range []int64{1, 3, 7, 11} {
		ref := diffRunWith(t, diffOpts{gating: "catnap", ref: true, sched: gappedBursts(offset), cycles: skipCycles})
		fast := diffRunWith(t, diffOpts{gating: "catnap", skip: true, sched: gappedBursts(offset), cycles: skipCycles})
		compareFingerprints(t, "wrap/skip", ref, fast)
		if fast.skipped == 0 {
			t.Errorf("offset %d: no cycles skipped", offset)
		}
	}
}

// TestIdleSkipDrainDeadline interleaves Network.Drain calls with gapped
// traffic on both arms: one drain lands mid-flight just after a burst
// (its deadline falls inside the following idle gap, which the skipping
// arm then fast-forwards over), and one lands on an already-quiescent
// network mid-gap. Drain itself always steps cycle by cycle; the skip
// machinery must stay aligned around it.
func TestIdleSkipDrainDeadline(t *testing.T) {
	opts := func(ref, skip bool) diffOpts {
		return diffOpts{
			gating: "catnap", ref: ref, skip: skip,
			sched: gappedBursts(0), cycles: skipCycles,
			drainAt: []int{310, 1800}, drainBudget: 600,
		}
	}
	ref := diffRunWith(t, opts(true, false))
	fast := diffRunWith(t, opts(false, true))
	compareFingerprints(t, "drain/skip", ref, fast)
	if fast.skipped == 0 {
		t.Error("no cycles skipped around the drain calls")
	}
}

// TestIdleSkipFlipMidRun toggles execution modes through SetExecMode
// while running: idle fast-forward off and back on, and the reference
// scan on and back off (which force-disables skipping in between) — each
// flip landing in a different traffic phase. The flipped run must land
// exactly on the pure-reference trajectory.
func TestIdleSkipFlipMidRun(t *testing.T) {
	ref := diffRunWith(t, diffOpts{gating: "catnap", ref: true, sched: gappedBursts(0), cycles: skipCycles})
	fast := diffRunWith(t, diffOpts{
		gating: "catnap", skip: true,
		sched: gappedBursts(0), cycles: skipCycles,
		flipSkip: []int{500, 1700},  // off mid-gap, back on mid-burst's tail
		flipRef:  []int{1200, 2700}, // reference scan through burst 2, back off mid-tail
	})
	compareFingerprints(t, "flip/skip", ref, fast)
	if fast.skipped == 0 {
		t.Error("no cycles skipped across the mode flips")
	}
}

// plainObserver implements only CycleObserver — no IdleSkipper — and so
// must veto fast-forward entirely.
type plainObserver struct{ cycles int64 }

func (p *plainObserver) AfterCycle(now int64) { p.cycles++ }

// TestIdleSkipObserverVeto pins the correctness-by-default contract: an
// observer without SkipIdle support blocks every skip, and disarmed or
// reference-scan networks never skip regardless of observers.
func TestIdleSkipObserverVeto(t *testing.T) {
	cfg := testConfig(4, 4, 2, 128)

	net := newNet(t, cfg)
	net.SetExecMode(noc.ExecMode{IdleSkip: true})
	if k := net.TrySkipIdle(1000); k == 0 {
		t.Error("empty quiescent network with no observers refused to skip")
	}

	vetoed := newNet(t, cfg)
	vetoed.SetExecMode(noc.ExecMode{IdleSkip: true})
	vetoed.AddObserver(&plainObserver{})
	if k := vetoed.TrySkipIdle(1000); k != 0 {
		t.Errorf("per-cycle observer did not veto: skipped %d cycles", k)
	}

	disarmed := newNet(t, cfg)
	if k := disarmed.TrySkipIdle(1000); k != 0 {
		t.Errorf("disarmed network skipped %d cycles", k)
	}

	refScan := newNet(t, cfg)
	refScan.SetExecMode(noc.ExecMode{IdleSkip: true, ReferenceScan: true})
	if k := refScan.TrySkipIdle(1000); k != 0 {
		t.Errorf("reference-scan network skipped %d cycles", k)
	}
}

// TestExecModeRoundTrip covers the consolidated execution-mode surface:
// SetExecMode applies, and ExecMode reads back, every combination of the
// three knobs, including flips straight from one to another.
func TestExecModeRoundTrip(t *testing.T) {
	cfg := testConfig(4, 4, 2, 128)
	net := newNet(t, cfg)
	for bits := 0; bits < 8; bits++ {
		want := noc.ExecMode{
			ReferenceScan:   bits&1 != 0,
			PacketRecycling: bits&2 != 0,
			IdleSkip:        bits&4 != 0,
		}
		net.SetExecMode(want)
		if got := net.ExecMode(); got != want {
			t.Errorf("ExecMode round trip: got %+v, want %+v", got, want)
		}
	}
}
