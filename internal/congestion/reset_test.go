package congestion_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// runDetectorReused mirrors runDetector but on a recycled stack: the
// network and detector first simulate a dirtying run under a different
// metric kind and load, then both are Reset in place, and the scenario
// replays exactly as runDetector's fresh build would. Every window,
// candidate bitmap, hysteresis latch, and RCS energy counter must have
// been rewound for the transition sequences to match.
func runDetectorReused(t *testing.T, kind congestion.MetricKind, cycles int, load float64) ([]transition, []bool, congestion.RCSEnergy) {
	t.Helper()
	net := newNet(t, 4)
	dirtyKind := congestion.Delay
	if kind == congestion.Delay {
		dirtyKind = congestion.BFM
	}
	det := congestion.NewDetector(net, congestion.Config{Metric: dirtyKind})
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, net.Config().Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	dirty := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.25), 17)
	for i := 0; i < 800; i++ {
		dirty.Tick(net.Now())
		net.Step()
	}

	cfg := *net.Config()
	if err := net.Reset(cfg, core.NewRRSelector(cfg.Nodes())); err != nil {
		t.Fatal(err)
	}
	det.Reset(net, congestion.Config{Metric: kind})
	tr := &recordingTracer{}
	det.SetTracer(tr)
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))

	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(load), 41)
	for i := 0; i < cycles; i++ {
		gen.Tick(net.Now())
		net.Step()
	}

	final := make([]bool, 0, net.Subnets()*net.Config().Nodes())
	for s := 0; s < net.Subnets(); s++ {
		for n := 0; n < net.Config().Nodes(); n++ {
			final = append(final, det.LCS(s, n), det.Congested(s, n))
		}
	}
	return tr.seq, final, *det.Energy()
}

// TestDetectorResetMatchesFresh is the congestion half of the reset
// differential: for every metric kind, a dirtied-then-Reset detector on a
// dirtied-then-Reset network must reproduce the fresh stack's exact
// LCS/RCS transition sequence, final congestion picture, and RCS energy
// counters.
func TestDetectorResetMatchesFresh(t *testing.T) {
	kinds := []congestion.MetricKind{
		congestion.BFM, congestion.BFA, congestion.IR, congestion.IQOcc, congestion.Delay,
	}
	for _, kind := range kinds {
		refSeq, refFinal, refStats := runDetector(t, kind, false, 1800, 0.30)
		gotSeq, gotFinal, gotStats := runDetectorReused(t, kind, 1800, 0.30)
		if len(refSeq) == 0 {
			t.Fatalf("%v: no transitions in the fresh run; reset differential is vacuous", kind)
		}
		if len(refSeq) != len(gotSeq) {
			t.Fatalf("%v: transition counts differ: fresh %d vs reset %d", kind, len(refSeq), len(gotSeq))
		}
		for i := range refSeq {
			if refSeq[i] != gotSeq[i] {
				t.Fatalf("%v: transition %d diverges: fresh %+v vs reset %+v", kind, i, refSeq[i], gotSeq[i])
			}
		}
		for i := range refFinal {
			if refFinal[i] != gotFinal[i] {
				t.Fatalf("%v: final congestion state diverges at index %d", kind, i)
			}
		}
		if refStats != gotStats {
			t.Fatalf("%v: RCS energy counters diverge: fresh %+v vs reset %+v", kind, refStats, gotStats)
		}
	}
}
