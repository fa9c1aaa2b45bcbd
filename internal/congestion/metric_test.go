package congestion_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

func newNet(t *testing.T, subnets int) *noc.Network {
	t.Helper()
	cfg := noc.Config{
		Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4,
		Subnets: subnets, LinkWidthBits: 512 / subnets,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestBFAAveragesOverRadix builds 4NT-128b-PG-fbfly's network (an 8x8
// flattened butterfly, radix 15) under the BFA metric and loads it: a
// router holding k flits must sample k/15, on both sampling paths.
func TestBFAAveragesOverRadix(t *testing.T) {
	cfg := noc.Config{
		Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4, FBfly: true,
		Subnets: 4, LinkWidthBits: 128,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFA})
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.3), 5)
	for i := 0; i < 400; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	busy := 0
	for s := 0; s < net.Subnets(); s++ {
		for n := 0; n < cfg.Nodes(); n++ {
			k := net.Subnet(s).Router(n).TotalOccupancy()
			if k > 0 {
				busy++
			}
			want := float64(k) / 15
			if got := det.Sample(s, n); got != want {
				t.Fatalf("subnet %d node %d holds %d flits: BFA sample %v, want %v", s, n, k, got, want)
			}
			if got := det.SampleScan(s, n); got != want {
				t.Fatalf("subnet %d node %d holds %d flits: BFA scan sample %v, want %v", s, n, k, got, want)
			}
		}
	}
	if busy == 0 {
		t.Fatal("no router holds a flit; the load exercises nothing")
	}
}

func TestDefaults(t *testing.T) {
	for _, k := range []congestion.MetricKind{congestion.BFM, congestion.BFA, congestion.IR, congestion.IQOcc, congestion.Delay} {
		if congestion.DefaultThreshold(k) <= 0 {
			t.Errorf("%v: non-positive default threshold", k)
		}
	}
	if congestion.DefaultThreshold(congestion.BFM) != congestion.DefaultBFMThreshold {
		t.Error("BFM default threshold mismatch")
	}
	if congestion.DefaultThreshold(congestion.Delay) != congestion.DefaultDelayThreshold {
		t.Error("Delay default threshold mismatch")
	}
	if congestion.RCSPeriod != 6 {
		t.Errorf("RCS period %d, want 6 (SPICE H-tree delay)", congestion.RCSPeriod)
	}
}

func TestMetricNames(t *testing.T) {
	want := map[congestion.MetricKind]string{
		congestion.BFM: "BFM", congestion.BFA: "BFA", congestion.IR: "IR",
		congestion.IQOcc: "IQOcc", congestion.Delay: "Delay",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestIdleNetworkNeverCongested: with no traffic, no LCS or RCS may set.
func TestIdleNetworkNeverCongested(t *testing.T) {
	net := newNet(t, 4)
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	net.Run(500)
	for s := 0; s < 4; s++ {
		for n := 0; n < 64; n++ {
			if det.LCS(s, n) || det.Congested(s, n) {
				t.Fatalf("idle network congested at subnet %d node %d", s, n)
			}
		}
	}
}

// TestSaturationTripsBFM: hammering a single subnet beyond capacity must
// set LCS and propagate to the region's RCS within the latch period.
func TestSaturationTripsBFM(t *testing.T) {
	net := newNet(t, 1)
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.8), 3)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	lcs := 0
	for n := 0; n < 64; n++ {
		if det.LCS(0, n) {
			lcs++
		}
	}
	if lcs < 16 {
		t.Errorf("only %d/64 LCS set at saturation", lcs)
	}
	rcs := 0
	for r := 0; r < 4; r++ {
		if det.RCS(0, r) {
			rcs++
		}
	}
	if rcs == 0 {
		t.Error("no RCS set at saturation")
	}
	if det.Energy().Latches == 0 || det.Energy().Toggles == 0 {
		t.Error("OR network activity not accounted")
	}
}

// TestRCSLatchPeriod: RCS must only change on latch boundaries (every 6
// cycles), modelling the H-tree propagation delay.
func TestRCSLatchPeriod(t *testing.T) {
	net := newNet(t, 1)
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.8), 7)

	prev := make([]bool, 4)
	for i := 0; i < 600; i++ {
		gen.Tick(net.Now())
		net.Step()
		now := net.Now() - 1 // the cycle just executed
		for r := 0; r < 4; r++ {
			cur := det.RCS(0, r)
			if cur != prev[r] && now%congestion.RCSPeriod != 0 {
				t.Fatalf("RCS changed off-latch at cycle %d", now)
			}
			prev[r] = cur
		}
	}
}

// TestLocalOnlyMode: with UseRCS disabled, Congested must reflect only
// the node's own LCS (the BFM-local ablation).
func TestLocalOnlyMode(t *testing.T) {
	net := newNet(t, 1)
	cfg := congestion.Config{Metric: congestion.BFM, LocalOnly: true}
	det := congestion.NewDetector(net, cfg)
	net.AddObserver(det)
	gen := traffic.NewGenerator(net, traffic.Transpose{}, traffic.Constant(0.6), 9)
	for i := 0; i < 1500; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	for n := 0; n < 64; n++ {
		if det.Congested(0, n) != det.LCS(0, n) {
			t.Fatalf("local-only mode consulted regional state at node %d", n)
		}
		if det.RCSAtNode(0, n) != det.LCS(0, n) {
			t.Fatalf("RCSAtNode in local-only mode should equal LCS at node %d", n)
		}
	}
}

// TestHysteresis: once set, LCS must persist for the hold time after the
// metric drops ("remains in that status for a few cycles").
func TestHysteresis(t *testing.T) {
	net := newNet(t, 1)
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)

	// Saturate briefly, then stop offering traffic entirely.
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.8), 11)
	for i := 0; i < 800; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	anyHot := false
	for n := 0; n < 64 && !anyHot; n++ {
		anyHot = det.LCS(0, n)
	}
	if !anyHot {
		t.Skip("saturation did not trip LCS; covered by TestSaturationTripsBFM")
	}
	// One cycle after load stops, status must still be set somewhere
	// (buffers can't drain instantly, and hold keeps it).
	net.Step()
	stillHot := false
	for n := 0; n < 64 && !stillHot; n++ {
		stillHot = det.LCS(0, n)
	}
	if !stillHot {
		t.Error("LCS cleared instantly despite hold")
	}
	// After the network drains and the hold expires, all clear.
	net.Drain(100000)
	net.Run(200)
	for n := 0; n < 64; n++ {
		if det.LCS(0, n) {
			t.Fatalf("LCS stuck at node %d after drain", n)
		}
	}
}

// TestValidKind covers the metric-kind guard the facade uses.
func TestValidKind(t *testing.T) {
	for k := congestion.BFM; k <= congestion.Delay; k++ {
		if !congestion.ValidKind(k) {
			t.Errorf("%v invalid", k)
		}
	}
	if congestion.ValidKind(congestion.MetricKind(99)) || congestion.ValidKind(congestion.MetricKind(-1)) {
		t.Error("out-of-range kind accepted")
	}
}

// TestIQOccMetric: the IQOcc metric must reflect NI queue occupancy, and
// trips when injection backs up.
func TestIQOccMetric(t *testing.T) {
	net := newNet(t, 1)
	cfg := congestion.Config{Metric: congestion.IQOcc}
	det := congestion.NewDetector(net, cfg)
	net.AddObserver(det)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.9), 13)
	for i := 0; i < 1500; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	hot := 0
	for n := 0; n < 64; n++ {
		if det.LCS(0, n) {
			hot++
		}
	}
	if hot == 0 {
		t.Error("IQOcc never tripped at saturation")
	}
}

// TestIRWindow: the IR metric must reflect realized injection rate after
// a window closes, and a high threshold must not trip at low load.
func TestIRWindow(t *testing.T) {
	net := newNet(t, 1)
	cfg := congestion.Config{Metric: congestion.IR, MetricThreshold: 0.24}
	det := congestion.NewDetector(net, cfg)
	net.AddObserver(det)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.05), 17)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	for n := 0; n < 64; n++ {
		if det.LCS(0, n) {
			t.Fatalf("IR threshold 0.24 tripped at load 0.05 (node %d)", n)
		}
	}
}

// TestDelayMetricTripsUnderContention: the blocking-delay metric must set
// LCS when the network saturates.
func TestDelayMetricTripsUnderContention(t *testing.T) {
	net := newNet(t, 1)
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.Delay})
	net.AddObserver(det)
	gen := traffic.NewGenerator(net, traffic.Transpose{}, traffic.Constant(0.8), 19)
	for i := 0; i < 2500; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	hot := 0
	for n := 0; n < 64; n++ {
		if det.LCS(0, n) {
			hot++
		}
	}
	if hot == 0 {
		t.Error("Delay metric never tripped under heavy contention")
	}
}
