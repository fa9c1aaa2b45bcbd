package noc_test

import (
	"testing"
	"testing/quick"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// propConfig derives a small but varied network configuration from fuzz
// inputs.
func propConfig(meshSel, subnetSel, vcSel, depthSel uint8) noc.Config {
	dims := [][2]int{{2, 2}, {4, 4}, {4, 2}, {8, 8}, {2, 8}}
	d := dims[int(meshSel)%len(dims)]
	subnets := []int{1, 2, 4}[int(subnetSel)%3]
	cfg := noc.Config{
		Rows: d[0], Cols: d[1],
		TilesPerNode: 4,
		RegionDim:    gcdDim(d[0], d[1]),
		Subnets:      subnets, LinkWidthBits: 512 / subnets,
		VCs: int(vcSel)%4 + 1, VCDepth: int(depthSel)%6 + 2,
		InjQueueFlits: 16,
		RouterDelay:   2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
	return cfg
}

// TestPropertyConservationAndQuiescence: for arbitrary small
// configurations, seeds, and loads, every created packet is delivered
// exactly once and the drained network returns to its pristine state
// (all credits home, no leaked VC allocations, empty wheels).
func TestPropertyConservationAndQuiescence(t *testing.T) {
	f := func(meshSel, subnetSel, vcSel, depthSel uint8, seed uint64, loadSel uint8) bool {
		cfg := propConfig(meshSel, subnetSel, vcSel, depthSel)
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		load := []float64{0.02, 0.1, 0.3, 0.8}[int(loadSel)%4]
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(load), seed)
		for i := 0; i < 1500; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		if !net.Drain(200000) {
			t.Logf("deadlock: cfg=%+v load=%v seed=%d inflight=%d", cfg, load, seed, net.InFlight())
			return false
		}
		if err := net.CheckQuiescent(); err != nil {
			t.Logf("%v (cfg=%+v load=%v seed=%d)", err, cfg, load, seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGatedConservation: the same conservation property must
// survive power gating with both gating policies — gating must never
// strand or lose a flit.
func TestPropertyGatedConservation(t *testing.T) {
	f := func(meshSel, vcSel uint8, seed uint64, catnapGate bool) bool {
		cfg := propConfig(meshSel, 2 /* 4 subnets */, vcSel, 2)
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			return false
		}
		if catnapGate {
			det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
			net.AddObserver(det)
			net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
			net.SetGatingPolicy(core.NewCatnapGating(det))
		} else {
			net.SetGatingPolicy(core.BaselineGating{})
		}
		// Bursty on/off traffic maximizes gating transitions.
		sched := traffic.Piecewise(
			traffic.Phase{Until: 200, Load: 0},
			traffic.Phase{Until: 400, Load: 0.3},
			traffic.Phase{Until: 700, Load: 0},
			traffic.Phase{Until: 900, Load: 0.1},
			traffic.Phase{Until: 1 << 62, Load: 0},
		)
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, sched, seed)
		for i := 0; i < 1200; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		if !net.Drain(200000) {
			t.Logf("gated deadlock: cfg=%+v seed=%d catnap=%v inflight=%d", cfg, seed, catnapGate, net.InFlight())
			return false
		}
		if err := net.CheckQuiescent(); err != nil {
			t.Logf("%v (cfg=%+v seed=%d catnap=%v)", err, cfg, seed, catnapGate)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLatencyLowerBound: no packet can beat the zero-load
// pipeline: latency >= 4 + 3*hops + (flits-1).
func TestPropertyLatencyLowerBound(t *testing.T) {
	cfg := testConfig(8, 8, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	net.AddSink(func(now int64, p *noc.Packet) {
		min := int64(4+3*net.Topo().Hops(p.Src, p.Dst)) + int64(p.NumFlits-1)
		if p.Latency() < min {
			violations++
			t.Errorf("packet %d: latency %d below physical bound %d", p.ID, p.Latency(), min)
		}
	})
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.2), 21)
	for i := 0; i < 4000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if violations > 0 {
		t.Fatalf("%d physical-bound violations", violations)
	}
}

// TestPropertyClassIsolation: with AppTraffic's per-class VC sets,
// packets of each class are still all delivered (no class can starve
// another into deadlock).
func TestPropertyClassIsolation(t *testing.T) {
	cfg := testConfig(4, 4, 2, 256)
	cfg.AppTraffic = true
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	classes := []noc.MsgClass{noc.ClassRequest, noc.ClassForward, noc.ClassResponse, noc.ClassAck}
	want := 0
	for i := 0; i < 400; i++ {
		src := i % cfg.Nodes()
		dst := (i*7 + 3) % cfg.Nodes()
		if src == dst {
			continue
		}
		bits := 72
		if classes[i%4] == noc.ClassResponse {
			bits = 584
		}
		net.NewPacket(src, dst, classes[i%4], bits)
		want++
	}
	if !net.Drain(100000) {
		t.Fatalf("class-isolated network did not drain: %d in flight", net.InFlight())
	}
	if _, _, ejected := net.Counts(); int(ejected) != want {
		t.Fatalf("delivered %d of %d", ejected, want)
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
