package noc_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// testConfig returns a paper-like configuration scaled by arguments.
func testConfig(rows, cols, subnets, width int) noc.Config {
	return noc.Config{
		Rows: rows, Cols: cols,
		TilesPerNode:  4,
		RegionDim:     gcdDim(rows, cols),
		Subnets:       subnets,
		LinkWidthBits: width,
		VCs:           4,
		VCDepth:       4,
		InjQueueFlits: 16,
		RouterDelay:   2,
		LinkDelay:     1,
		CreditDelay:   1,
		TWakeup:       10,
		WakeupHidden:  3,
		TIdleDetect:   4,
		TBreakeven:    12,
	}
}

func gcdDim(rows, cols int) int {
	// Largest square region dim that tiles both dimensions; for the test
	// meshes (4x4, 8x8) this is rows/2 or rows.
	d := rows
	if cols < d {
		d = cols
	}
	for d > 1 {
		if rows%d == 0 && cols%d == 0 {
			return d
		}
		d--
	}
	return 1
}

func newNet(t *testing.T, cfg noc.Config) *noc.Network {
	t.Helper()
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	return net
}

// flitShares returns each subnet's fraction of every flit injected so far.
func flitShares(net *noc.Network) []float64 {
	flits := net.FlitsPerSubnet()
	var total int64
	for _, f := range flits {
		total += f
	}
	share := make([]float64, len(flits))
	for s, f := range flits {
		if total > 0 {
			share[s] = float64(f) / float64(total)
		}
	}
	return share
}

// awakeRouters returns how many of subnet s's routers are active or waking.
func awakeRouters(net *noc.Network, s int) int {
	active, waking, _ := net.Subnet(s).PowerStates()
	return active + waking
}

func TestZeroLoadLatencySingleFlit(t *testing.T) {
	cfg := testConfig(8, 8, 1, 512)
	net := newNet(t, cfg)

	// Corner to corner: 14 hops on an 8x8 mesh under X-Y routing.
	p := net.NewPacket(0, 63, noc.ClassSynthetic, 512)
	net.Run(100)
	if p.ArriveTime == 0 {
		t.Fatalf("packet not delivered after 100 cycles (in flight: %d)", net.InFlight())
	}

	// Zero-load timing arithmetic for this microarchitecture: the flit is
	// streamed by the NI at cycle 0, arrives at the source router at cycle
	// 1 (link), becomes switch-eligible 2 cycles later (two-stage router),
	// and each subsequent hop costs 3 cycles (2 pipeline + 1 link). At the
	// destination router it traverses to the ejection port and lands in
	// the NI one link-cycle later: latency = 4 + 3*hops.
	hops := int64(net.Topo().Hops(0, 63))
	want := 4 + 3*hops
	if p.Latency() != want {
		t.Fatalf("zero-load latency = %d, want %d (hops=%d)", p.Latency(), want, hops)
	}
	if p.NetworkLatency() != want {
		t.Fatalf("network latency = %d, want %d (no queueing at zero load)", p.NetworkLatency(), want)
	}
}

func TestZeroLoadLatencyMultiFlit(t *testing.T) {
	cfg := testConfig(8, 8, 4, 128)
	net := newNet(t, cfg)

	// A 512-bit packet on a 128-bit subnet is 4 flits; the tail trails the
	// head by 3 cycles of serialization at every zero-load pipeline stage,
	// so total latency = head latency + (flits-1).
	p := net.NewPacket(0, 63, noc.ClassSynthetic, 512)
	net.Run(200)
	if p.ArriveTime == 0 {
		t.Fatal("packet not delivered")
	}
	if p.NumFlits != 4 {
		t.Fatalf("NumFlits = %d, want 4", p.NumFlits)
	}
	hops := int64(net.Topo().Hops(0, 63))
	want := 4 + 3*hops + int64(p.NumFlits-1)
	if p.Latency() != want {
		t.Fatalf("zero-load latency = %d, want %d", p.Latency(), want)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	cfg := testConfig(4, 4, 2, 128)
	net := newNet(t, cfg)
	want := 0
	for s := 0; s < cfg.Nodes(); s++ {
		for d := 0; d < cfg.Nodes(); d++ {
			if s == d {
				continue
			}
			net.NewPacket(s, d, noc.ClassSynthetic, 512)
			want++
		}
	}
	if !net.Drain(100000) {
		t.Fatalf("network did not drain: %d packets in flight", net.InFlight())
	}
	_, _, ejected := net.Counts()
	if int(ejected) != want {
		t.Fatalf("ejected %d packets, want %d", ejected, want)
	}
}

func TestUniformRandomConservation(t *testing.T) {
	for _, subnets := range []int{1, 2, 4} {
		cfg := testConfig(8, 8, subnets, 512/subnets)
		net := newNet(t, cfg)
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.05), 42)
		for i := 0; i < 5000; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		if !net.Drain(100000) {
			t.Fatalf("subnets=%d: did not drain (%d in flight)", subnets, net.InFlight())
		}
		created, injected, ejected := net.Counts()
		if created != ejected || created != injected {
			t.Fatalf("subnets=%d: created=%d injected=%d ejected=%d", subnets, created, injected, ejected)
		}
		if created == 0 {
			t.Fatalf("subnets=%d: no traffic generated", subnets)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		cfg := testConfig(8, 8, 4, 128)
		net := newNet(t, cfg)
		gen := traffic.NewGenerator(net, traffic.Transpose{}, traffic.Constant(0.1), 7)
		for i := 0; i < 3000; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		_, _, ejected := net.Counts()
		return ejected, net.Latency().Mean()
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Fatalf("non-deterministic: (%d, %v) vs (%d, %v)", e1, l1, e2, l2)
	}
	if e1 == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestBaselineGatingSleepsIdleNetwork(t *testing.T) {
	cfg := testConfig(4, 4, 1, 512)
	net := newNet(t, cfg)
	net.SetGatingPolicy(core.BaselineGating{})
	net.Run(100)
	for n := 0; n < cfg.Nodes(); n++ {
		if st := net.Subnet(0).Router(n).State(); st != noc.PowerAsleep {
			t.Fatalf("router %d state = %v after 100 idle cycles, want asleep", n, st)
		}
	}
	csc, total := net.CompensatedSleepCycles()
	if csc == 0 || csc > total {
		t.Fatalf("csc = %d of %d router-cycles, want (0, total]", csc, total)
	}
}

func TestGatedPacketStillDelivered(t *testing.T) {
	cfg := testConfig(4, 4, 1, 512)
	net := newNet(t, cfg)
	net.SetGatingPolicy(core.BaselineGating{})
	net.Run(50) // everything sleeps
	p := net.NewPacket(0, 15, noc.ClassSynthetic, 512)
	net.Run(300)
	if p.ArriveTime == 0 {
		t.Fatal("packet lost in a gated network")
	}
	// Wake-up penalties must make it slower than the zero-load latency.
	hops := int64(net.Topo().Hops(0, 15))
	zeroLoad := 4 + 3*hops
	if p.NetworkLatency() <= zeroLoad {
		t.Fatalf("network latency %d through gated routers should exceed zero-load %d", p.NetworkLatency(), zeroLoad)
	}
}

func TestCatnapConcentratesLowLoadInSubnetZero(t *testing.T) {
	cfg := testConfig(8, 8, 4, 128)
	net := newNet(t, cfg)
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))

	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.02), 11)
	for i := 0; i < 5000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	share := flitShares(net)
	if share[0] < 0.99 {
		t.Fatalf("subnet 0 share = %v, want ~1.0 at low load (shares %v)", share[0], share)
	}
	// Higher-order subnets should be overwhelmingly asleep.
	for s := 1; s < 4; s++ {
		if a := awakeRouters(net, s); a > 4 {
			t.Errorf("subnet %d has %d active routers at low load, want <= 4", s, a)
		}
	}
	// And it all still works.
	if !net.Drain(100000) {
		t.Fatalf("did not drain: %d in flight", net.InFlight())
	}
	created, _, ejected := net.Counts()
	if created != ejected {
		t.Fatalf("created %d != ejected %d", created, ejected)
	}
}

func TestRandomSelectorSpreads(t *testing.T) {
	cfg := testConfig(4, 4, 4, 128)
	sel := core.NewRandomSelector(sim.NewRNG(3))
	net, err := noc.New(cfg, sel)
	if err != nil {
		t.Fatal(err)
	}
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.05), 5)
	for i := 0; i < 4000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	share := flitShares(net)
	for s, f := range share {
		if f < 0.1 || f > 0.5 {
			t.Fatalf("random selector subnet %d share %v, want roughly uniform (%v)", s, f, share)
		}
	}
}
