package catnap

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its experiment at a reduced-but-meaningful scale and
// reports the headline quantities as custom benchmark metrics, so
// `go test -bench=.` reproduces the whole evaluation and prints the
// numbers next to the timing. cmd/catnap prints the full-resolution
// rows/series; EXPERIMENTS.md records paper-vs-measured values.

import (
	"context"
	"runtime"
	"testing"

	"github.com/catnap-noc/catnap/internal/power"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// benchScale keeps per-iteration cost moderate while staying long enough
// for steady-state behaviour (warmup exceeds the longest wake-up and
// RCS-latch transients by two orders of magnitude).
var benchScale = Scale{Warmup: 1500, Measure: 6000}

var benchLoads = []float64{0.05, 0.15, 0.30, 0.45}

// benchExperiment runs a registry experiment (at benchScale unless o
// sets a scale) and returns its typed rows.
func benchExperiment[T any](b *testing.B, name string, o ExperimentOpts) T {
	b.Helper()
	if o.Scale == (Scale{}) {
		o.Scale = benchScale
	}
	res, err := RunExperiment(context.Background(), name, o)
	if err != nil {
		b.Fatal(err)
	}
	return res.Data.(T)
}

// BenchmarkFig2 regenerates Figure 2: normalized system performance of an
// under-provisioned 128-bit Single-NoC vs the 512-bit baseline on the
// Light and Heavy workloads.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range benchExperiment[[]Fig2Row](b, "fig2", ExperimentOpts{}) {
			if r.Design == "1NT-128b" {
				b.ReportMetric(r.Normalized, r.Workload+"_128b_normPerf")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2 from the crossbar critical-path
// model.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range benchExperiment[[]power.Table2Row](b, "table2", ExperimentOpts{}) {
			if r.WidthBits == 128 && r.VoltV == 0.625 {
				b.ReportMetric(r.FreqGHz, "GHz_128b_0.625V")
			}
			if r.WidthBits == 512 && r.VoltV == 0.750 {
				b.ReportMetric(r.FreqGHz, "GHz_512b_0.750V")
			}
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: saturation throughput of the
// bandwidth-equivalent 1/2/4/8-subnet designs under uniform random.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig6Point](b, "fig6", ExperimentOpts{Loads: benchLoads})
		sat := map[string]float64{}
		for _, p := range pts {
			if p.Accepted > sat[p.Design] {
				sat[p.Design] = p.Accepted
			}
		}
		for d, v := range sat {
			b.ReportMetric(v, d+"_satThroughput")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7's analytic power bars.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchExperiment[[]Fig7Row](b, "fig7", ExperimentOpts{})
		b.ReportMetric(rows[0].Breakdown.Total, "single_0.750V_W")
		b.ReportMetric(rows[1].Breakdown.Total, "multi_0.750V_W")
		b.ReportMetric(rows[2].Breakdown.Total, "multi_0.625V_W")
	}
}

// BenchmarkFig8 regenerates Figure 8 on its two extreme workloads: power
// and normalized performance of the six designs.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchExperiment[[]AppRow](b, "fig8", ExperimentOpts{Mixes: []string{"Light", "Heavy"}})
		for _, r := range rows {
			switch r.Design {
			case "1NT-512b", "4NT-128b-PG":
				b.ReportMetric(r.Results.Power.Total, r.Workload+"_"+r.Design+"_W")
			}
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: compensated sleep cycles for the
// power-gated designs on Light and Heavy.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchExperiment[[]AppRow](b, "fig9", ExperimentOpts{
			Mixes: []string{"Light", "Heavy"}, Designs: []string{"1NT-512b-PG", "4NT-128b-PG"},
		})
		for _, r := range rows {
			b.ReportMetric(r.Results.CSCPercent, r.Workload+"_"+r.Design+"_CSC%")
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: power/CSC/throughput/latency vs
// load with and without power gating, uniform random.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig10Point](b, "fig10", ExperimentOpts{Loads: benchLoads})
		for _, p := range pts {
			if p.Offered == 0.05 {
				b.ReportMetric(p.PowerW, p.Design+"_W@0.05")
				b.ReportMetric(p.CSCPercent, p.Design+"_CSC%@0.05")
			}
		}
	}
}

// BenchmarkFig11 regenerates Figure 11(a): the six policies on uniform
// random, reporting latency at a moderate load and the RR-vs-BFM CSC gap.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig11Point](b, "fig11", ExperimentOpts{Loads: []float64{0.05, 0.15}})
		for _, p := range pts {
			if p.Offered == 0.15 {
				b.ReportMetric(p.Latency, p.Policy+"_lat@0.15")
			}
			if p.Offered == 0.05 && (p.Policy == "RR" || p.Policy == "BFM") {
				b.ReportMetric(p.CSCPercent, p.Policy+"_CSC%@0.05")
			}
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: bursty ramp-up — reporting how
// fast accepted throughput catches the 0.30 burst and how many subnets
// the second, smaller burst opens.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig12Point](b, "fig12", ExperimentOpts{Total: 3000, Window: 50})
		var catchup int64 = -1
		burst2Subnets := 0.0
		for _, p := range pts {
			if catchup < 0 && p.Cycle > 1000 && p.Cycle <= 1500 && p.Accepted >= 0.27 {
				catchup = p.Cycle - 1000
			}
			if p.Cycle > 2300 && p.Cycle <= 2500 {
				n := 0.0
				for _, s := range p.SubnetShare {
					if s > 0.05 {
						n++
					}
				}
				if n > burst2Subnets {
					burst2Subnets = n
				}
			}
		}
		b.ReportMetric(float64(catchup), "burst1_catchupCycles")
		b.ReportMetric(burst2Subnets, "burst2_subnetsOpen")
	}
}

// BenchmarkFig13 regenerates Figure 13: the IR selector's threshold
// dilemma — latency at a moderate load for the lowest and highest
// thresholds on both patterns.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig13Point](b, "fig13", ExperimentOpts{Loads: []float64{0.10, 0.20}})
		for _, p := range pts {
			if p.Offered == 0.20 && (p.Threshold == 0.04 || p.Threshold == 0.24) {
				b.ReportMetric(p.Latency, p.Pattern+"_thr"+f2(p.Threshold)+"_lat@0.20")
			}
		}
	}
}

// BenchmarkFig14 regenerates Figure 14: the 64-core study's CSC at low
// load for the Single- and Multi-NoC designs.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig14Point](b, "fig14", ExperimentOpts{Loads: []float64{0.05, 0.15, 0.30}})
		for _, p := range pts {
			if p.Offered == 0.05 {
				b.ReportMetric(p.CSCPercent, p.Design+"_CSC%@0.05")
			}
		}
	}
}

// BenchmarkHeadline regenerates the paper's headline comparison.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchExperiment[Headline](b, "headline", ExperimentOpts{})
		b.ReportMetric(h.PowerReduction*100, "powerReduction%")
		b.ReportMetric(h.AvgPerfCost*100, "perfCost%")
		b.ReportMetric(h.LightCSCPercent, "lightCSC%")
	}
}

// --- sweep-engine benchmarks ------------------------------------------------

// BenchmarkSweepFig6Jobs1 runs the Figure 6 grid through the sweep
// engine pinned to one worker — the sequential baseline for the
// parallel speedup below.
func BenchmarkSweepFig6Jobs1(b *testing.B) {
	benchSweepFig6(b, 1)
}

// BenchmarkSweepFig6JobsMax runs the same grid at GOMAXPROCS workers;
// compare against Jobs1 for the wall-clock speedup (results are
// bit-identical at any worker count).
func BenchmarkSweepFig6JobsMax(b *testing.B) {
	benchSweepFig6(b, runtime.GOMAXPROCS(0))
}

func benchSweepFig6(b *testing.B, jobs int) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		pts := benchExperiment[[]Fig6Point](b, "fig6", ExperimentOpts{
			Loads: benchLoads, Sweep: SweepOptions{Jobs: jobs}, NoReuse: true,
		})
		cycles += int64(len(pts)) * (benchScale.Warmup + benchScale.Measure)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simCycles/s")
}

// --- engine micro-benchmarks ------------------------------------------------

// BenchmarkNetworkStep measures simulator speed: cycles/second for the
// full 4-subnet 256-core network under moderate uniform-random load.
func BenchmarkNetworkStep(b *testing.B) {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(0.10), 1)
	sim.Run(1000) // settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkNetworkStepIdle measures the power-gating fast path: a fully
// slept network should cost far less to simulate per cycle.
func BenchmarkNetworkStepIdle(b *testing.B) {
	sim := mustSim(mustDesign("4NT-128b-PG"))
	sim.Run(500) // everything asleep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkPacketDelivery measures end-to-end cost per delivered packet
// on the Single-NoC.
func BenchmarkPacketDelivery(b *testing.B) {
	sim := mustSim(mustDesign("1NT-512b"))
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(0.20), 1)
	sim.Run(1000)
	sim.StartMeasure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	b.StopTimer()
	res := sim.StopMeasure()
	if res.PacketsDelivered > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.PacketsDelivered), "ns/packet")
	}
}

func f2(v float64) string {
	return string([]byte{'0' + byte(int(v*100)/10%10), '0' + byte(int(v*100)%10)})
}
