package congestion_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// transition is one LCS or RCS change as reported to the tracer.
type transition struct {
	cycle  int64
	rcs    bool
	subnet int
	node   int // region index for RCS
	on     bool
}

// recordingTracer captures the full transition sequence. Runs here are
// sequential, so no locking is needed.
type recordingTracer struct{ seq []transition }

func (r *recordingTracer) LCSChanged(now int64, subnet, node int, on bool) {
	r.seq = append(r.seq, transition{cycle: now, subnet: subnet, node: node, on: on})
}

func (r *recordingTracer) RCSChanged(now int64, subnet, region int, on bool) {
	r.seq = append(r.seq, transition{cycle: now, rcs: true, subnet: subnet, node: region, on: on})
}

// runDetector drives a Catnap stack built around a detector of the given
// kind for cycles, in either stepping mode, and returns the transition
// sequence plus the final per-node congestion picture.
func runDetector(t *testing.T, kind congestion.MetricKind, ref bool, cycles int, load float64) ([]transition, []bool, congestion.RCSEnergy) {
	t.Helper()
	net := newNet(t, 4)
	det := congestion.NewDetector(net, congestion.Config{Metric: kind})
	tr := &recordingTracer{}
	det.SetTracer(tr)
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, net.Config().Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	net.SetReferenceScan(ref)

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

// TestDetectorIncrementalMatchesScan checks, for every metric kind, that
// the candidate-bitmap sampling path produces the exact LCS/RCS
// transition sequence and final congestion state of the full-scan
// reference — including the rate metrics (IR, Delay) whose candidate
// sets are rebuilt from window rates, and the occupancy metrics driven
// by the incremental occupancy bitmaps.
func TestDetectorIncrementalMatchesScan(t *testing.T) {
	kinds := []congestion.MetricKind{
		congestion.BFM, congestion.BFA, congestion.IR, congestion.IQOcc, congestion.Delay,
	}
	for _, kind := range kinds {
		for _, load := range []float64{0.05, 0.30} {
			refSeq, refFinal, refStats := runDetector(t, kind, true, 2200, load)
			fastSeq, fastFinal, fastStats := runDetector(t, kind, false, 2200, load)
			if len(refSeq) != len(fastSeq) {
				t.Fatalf("%v load %.2f: transition counts differ: ref %d vs fast %d", kind, load, len(refSeq), len(fastSeq))
			}
			for i := range refSeq {
				if refSeq[i] != fastSeq[i] {
					t.Fatalf("%v load %.2f: transition %d diverges: ref %+v vs fast %+v", kind, load, i, refSeq[i], fastSeq[i])
				}
			}
			for i := range refFinal {
				if refFinal[i] != fastFinal[i] {
					t.Fatalf("%v load %.2f: final congestion state diverges at index %d", kind, load, i)
				}
			}
			if refStats != fastStats {
				t.Fatalf("%v load %.2f: counters diverge: ref %+v vs fast %+v", kind, load, refStats, fastStats)
			}
		}
	}
}

// TestDetectorTransitionsOccur guards the differential against vacuity:
// at the saturating load at least one metric transition must have fired
// for every kind, otherwise the comparison above proves nothing.
func TestDetectorTransitionsOccur(t *testing.T) {
	kinds := []congestion.MetricKind{
		congestion.BFM, congestion.BFA, congestion.IR, congestion.IQOcc, congestion.Delay,
	}
	for _, kind := range kinds {
		seq, _, _ := runDetector(t, kind, false, 2200, 0.30)
		if len(seq) == 0 {
			t.Errorf("%v: no LCS/RCS transitions at saturating load; differential test is vacuous", kind)
		}
	}
}
