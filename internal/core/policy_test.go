package core_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/traffic"
)

func netCfg(subnets int) noc.Config {
	return noc.Config{
		Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4,
		Subnets: subnets, LinkWidthBits: 512 / subnets,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
}

func TestRRSelectorCycles(t *testing.T) {
	sel := core.NewRRSelector(1)
	ready := []bool{true, true, true, true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, sel.Select(0, 0, nil, ready))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RR sequence %v, want %v", got, want)
		}
	}
}

func TestRRSelectorSkipsBusy(t *testing.T) {
	sel := core.NewRRSelector(1)
	ready := []bool{false, true, false, true}
	if s := sel.Select(0, 0, nil, ready); s != 1 {
		t.Fatalf("got %d, want 1", s)
	}
	if s := sel.Select(0, 0, nil, ready); s != 3 {
		t.Fatalf("got %d, want 3", s)
	}
	none := []bool{false, false, false, false}
	if s := sel.Select(0, 0, nil, none); s != -1 {
		t.Fatalf("got %d with no ready subnet, want -1", s)
	}
}

func TestRandomSelectorOnlyReady(t *testing.T) {
	sel := core.NewRandomSelector(sim.NewRNG(1))
	ready := []bool{false, true, false, true}
	for i := 0; i < 100; i++ {
		s := sel.Select(0, 0, nil, ready)
		if s != 1 && s != 3 {
			t.Fatalf("random selector chose unavailable subnet %d", s)
		}
	}
	if s := sel.Select(0, 0, nil, []bool{false, false}); s != -1 {
		t.Fatalf("got %d with no ready subnet", s)
	}
}

// catnapFixture builds a network + detector + Catnap policies.
func catnapFixture(t *testing.T) (*noc.Network, *congestion.Detector, *core.CatnapSelector) {
	t.Helper()
	cfg := netCfg(4)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	sel := core.NewCatnapSelector(det, cfg.Nodes())
	net.SetSelector(sel)
	return net, det, sel
}

func TestCatnapSelectorPrefersLowest(t *testing.T) {
	_, _, sel := catnapFixture(t)
	ready := []bool{true, true, true, true}
	// No congestion anywhere: always subnet 0.
	for i := 0; i < 10; i++ {
		if s := sel.Select(0, 0, nil, ready); s != 0 {
			t.Fatalf("uncongested selection = %d, want 0", s)
		}
	}
}

func TestCatnapSelectorHoldsWhenPreferredBusy(t *testing.T) {
	_, _, sel := catnapFixture(t)
	// Subnet 0 uncongested but busy: strict priority must hold the packet
	// rather than leak it upward.
	ready := []bool{false, true, true, true}
	if s := sel.Select(0, 0, nil, ready); s != -1 {
		t.Fatalf("got %d, want -1 (hold for the preferred subnet)", s)
	}
}

// TestCatnapSelectorSpillsUnderCongestion drives real congestion through
// the network and checks the spill to subnet 1.
func TestCatnapSelectorSpillsUnderCongestion(t *testing.T) {
	net, _, _ := catnapFixture(t)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.4), 3)
	for i := 0; i < 3000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	flits := net.FlitsPerSubnet()
	var total int64
	for _, f := range flits {
		total += f
	}
	if float64(flits[1]) < 0.1*float64(total) {
		t.Errorf("no spill to subnet 1 at saturating load: flits per subnet %v", flits)
	}
	if flits[0] < flits[3] {
		t.Errorf("priority inverted: flits per subnet %v", flits)
	}
}

func TestOrderedSelectorPinsClass(t *testing.T) {
	fallback := core.NewRRSelector(1)
	sel := &core.OrderedSelector{Class: noc.ClassForward, Subnet: 0, Fallback: fallback}
	fwd := &noc.Packet{Class: noc.ClassForward}
	other := &noc.Packet{Class: noc.ClassResponse}
	ready := []bool{true, true}
	for i := 0; i < 5; i++ {
		if s := sel.Select(0, 0, fwd, ready); s != 0 {
			t.Fatalf("ordered class routed to subnet %d", s)
		}
	}
	// Ordered class waits when its subnet is busy — that is the point-to-
	// point ordering guarantee.
	if s := sel.Select(0, 0, fwd, []bool{false, true}); s != -1 {
		t.Fatalf("ordered class leaked to subnet %d", s)
	}
	// Other classes flow through the fallback.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[sel.Select(0, 0, other, ready)] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("fallback did not rotate: %v", seen)
	}
}

func TestBaselineGating(t *testing.T) {
	g := core.BaselineGating{}
	if !g.AllowSleep(0, 0, 0, 100) {
		t.Error("baseline gating must allow sleep on any subnet")
	}
	if g.WantWake(0, 0, 0) {
		t.Error("baseline gating never wakes proactively")
	}
}

func TestCatnapGatingSubnetZeroNeverSleeps(t *testing.T) {
	net, det, _ := catnapFixture(t)
	_ = net
	g := core.NewCatnapGating(det)
	if g.AllowSleep(0, 0, 5, 100) {
		t.Error("subnet 0 must never sleep")
	}
	// Higher subnets may sleep while the lower subnet is uncongested.
	if !g.AllowSleep(0, 1, 5, 100) {
		t.Error("subnet 1 should sleep when subnet 0 is uncongested")
	}
	if g.WantWake(0, 1, 5) {
		t.Error("subnet 1 should not wake while subnet 0 is uncongested")
	}
}

// TestCatnapGatingFollowsRCS drives congestion into subnet 0 and checks
// that subnet 1 routers in the congested region are woken proactively.
func TestCatnapGatingFollowsRCS(t *testing.T) {
	net, det, _ := catnapFixture(t)
	net.SetGatingPolicy(core.NewCatnapGating(det))
	net.Run(100) // subnets 1..3 sleep
	for n := 0; n < 64; n++ {
		if net.Subnet(1).Router(n).State() != noc.PowerAsleep {
			t.Fatalf("subnet 1 router %d awake in idle network", n)
		}
	}
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.4), 5)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if active, waking, _ := net.Subnet(1).PowerStates(); active+waking == 0 {
		t.Error("RCS-driven wake never fired under saturating load")
	}
}
