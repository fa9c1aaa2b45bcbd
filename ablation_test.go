package catnap

import (
	"context"
	"slices"
	"testing"
)

// Ablation benchmarks: one per design-choice study DESIGN.md calls out.
// Each reports the low-load CSC of the extreme variants so regressions in
// the policy machinery show up as metric swings.

func benchAblation(b *testing.B, study string) {
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(context.Background(), "ablation-"+study, ExperimentOpts{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Data.([]AblationPoint) {
			if p.Offered == AblationLoads[0] {
				b.ReportMetric(p.Results.CSCPercent, p.Variant+"_CSC%")
			}
		}
	}
}

// BenchmarkAblationRCS quantifies the 1-bit OR network's contribution:
// regional vs local-only detection.
func BenchmarkAblationRCS(b *testing.B) { benchAblation(b, "rcs") }

// BenchmarkAblationThreshold sweeps the BFM threshold: spill-early
// (lower CSC, lower latency) vs pack-tight.
func BenchmarkAblationThreshold(b *testing.B) { benchAblation(b, "threshold") }

// BenchmarkAblationIdleDetect sweeps T-idle-detect.
func BenchmarkAblationIdleDetect(b *testing.B) { benchAblation(b, "idle-detect") }

// BenchmarkAblationWakeup sweeps T-wakeup.
func BenchmarkAblationWakeup(b *testing.B) { benchAblation(b, "wakeup") }

// BenchmarkAblationRegion sweeps the OR-network region size.
func BenchmarkAblationRegion(b *testing.B) { benchAblation(b, "region") }

// BenchmarkAblationSubnets sweeps the subnet count at constant aggregate
// width — the gating-granularity argument of §6.6.
func BenchmarkAblationSubnets(b *testing.B) { benchAblation(b, "subnets") }

func TestAblationRegistry(t *testing.T) {
	if len(AblationStudies) != 6 {
		t.Fatalf("%d studies, want 6", len(AblationStudies))
	}
	names := ExperimentNames()
	for _, s := range AblationStudies {
		if !slices.Contains(names, "ablation-"+s.Name) {
			t.Errorf("ablation-%s missing from the experiment registry %v", s.Name, names)
		}
	}
	if _, err := RunExperiment(context.Background(), "ablation-nope", ExperimentOpts{}); err == nil {
		t.Error("unknown study should error")
	}
}

// TestAblationIdleDetectShape: a longer idle-detect window must not gate
// more than a shorter one (it strictly delays sleep).
func TestAblationIdleDetectShape(t *testing.T) {
	res, err := RunExperiment(context.Background(), "ablation-idle-detect", ExperimentOpts{Scale: Scale{Warmup: 1000, Measure: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	csc := map[string]float64{}
	for _, p := range res.Data.([]AblationPoint) {
		if p.Offered == AblationLoads[0] {
			csc[p.Variant] = p.Results.CSCPercent
		}
	}
	if csc["T=2"] < csc["T=16"] {
		t.Errorf("longer idle-detect gated more: T=2 %.1f%% vs T=16 %.1f%%", csc["T=2"], csc["T=16"])
	}
	if csc["T=4"] < 40 {
		t.Errorf("paper operating point CSC %.1f%% too low at light load", csc["T=4"])
	}
}

// TestOrderedForwardDelivers: the §2.3 point-to-point ordering option
// must keep the network functional with app traffic classes.
func TestOrderedForwardDelivers(t *testing.T) {
	cfg := mustDesign("4NT-128b-PG")
	cfg.AppTraffic = true
	cfg.OrderedForward = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.UseMix("Medium-Light"); err != nil {
		t.Fatal(err)
	}
	sim.Run(3000)
	sim.StartMeasure()
	sim.Run(5000)
	res := sim.StopMeasure()
	if res.PacketsDelivered == 0 || res.SystemIPC <= 0 {
		t.Fatalf("ordered-forward system stalled: %+v", res)
	}
	// Forward packets are pinned to subnet 0, so subnet 0 must carry a
	// solid share even if congestion would otherwise spill everything.
	if res.SubnetShare[0] < 0.3 {
		t.Errorf("subnet 0 share %.2f with ordered forwards pinned to it", res.SubnetShare[0])
	}
}
