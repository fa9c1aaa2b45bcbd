package noc_test

// Behavioural tests of the flow-control machinery: injection-queue
// bounds, backpressure, ejection, and power-gating timing edges.

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// newDetector attaches a default BFM detector to net.
func newDetector(t *testing.T, net *noc.Network) *congestion.Detector {
	t.Helper()
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	return det
}

// TestInjectionQueueBound: the NI's bounded queue never exceeds its
// configured flit capacity, however hard the source queue pushes.
func TestInjectionQueueBound(t *testing.T) {
	cfg := testConfig(4, 4, 1, 512)
	cfg.InjQueueFlits = 16
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	gen := traffic.NewGenerator(net, traffic.BitComplement{}, traffic.Constant(1.0), 3)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
		for n := 0; n < cfg.Nodes(); n++ {
			if occ := net.NI(n).QueueOccupancyFlits(); occ > cfg.InjQueueFlits {
				t.Fatalf("cycle %d node %d: injection queue %d > cap %d", i, n, occ, cfg.InjQueueFlits)
			}
		}
	}
}

// TestOversizePacketAdmitted: a packet larger than the whole injection
// queue must still be deliverable (admitted alone, streamed gradually).
func TestOversizePacketAdmitted(t *testing.T) {
	cfg := testConfig(4, 4, 1, 64) // 64-bit flits
	cfg.InjQueueFlits = 8
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	p := net.NewPacket(0, 15, noc.ClassSynthetic, 1024) // 16 flits > 8 cap
	net.Run(500)
	if p.ArriveTime == 0 {
		t.Fatal("oversize packet stuck")
	}
	if p.NumFlits != 16 {
		t.Fatalf("flits = %d", p.NumFlits)
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressurePropagates: when a destination's paths are saturated,
// source queues must grow (no flits disappear under pressure).
func TestBackpressurePropagates(t *testing.T) {
	cfg := testConfig(4, 4, 1, 512)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	// Everyone hammers node 0: its ejection port is the bottleneck
	// (1 flit/cycle), aggregate demand is ~7.5 packets/cycle.
	for i := 0; i < 3000; i++ {
		for src := 1; src < cfg.Nodes(); src++ {
			if i%2 == 0 {
				net.NewPacket(src, 0, noc.ClassSynthetic, 512)
			}
		}
		net.Step()
	}
	backlogged := 0
	for n := 1; n < cfg.Nodes(); n++ {
		if net.NI(n).Backlogged() {
			backlogged++
		}
	}
	if backlogged < cfg.Nodes()/2 {
		t.Errorf("only %d NIs backlogged under hotspot", backlogged)
	}
	// Conservation still holds after drain.
	if !net.Drain(600000) {
		t.Fatalf("hotspot did not drain: %d in flight", net.InFlight())
	}
	created, _, ejected := net.Counts()
	if created != ejected {
		t.Fatalf("conservation: created %d ejected %d", created, ejected)
	}
}

// TestSelectorContractEnforced: a selector returning an unavailable
// subnet is a programming error the substrate refuses to mask.
func TestSelectorContractEnforced(t *testing.T) {
	cfg := testConfig(4, 4, 2, 256)
	bad := selectorFunc(func(now int64, node int, pkt *noc.Packet, ready []bool) int {
		return 1 // chosen blindly, even when busy
	})
	net, err := noc.New(cfg, bad)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate so subnet 1's channel is eventually busy when selected.
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.9), 5)
	defer func() {
		if recover() == nil {
			t.Error("substrate accepted a selector contract violation")
		}
	}()
	for i := 0; i < 5000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
}

type selectorFunc func(now int64, node int, pkt *noc.Packet, ready []bool) int

func (f selectorFunc) Select(now int64, node int, pkt *noc.Packet, ready []bool) int {
	return f(now, node, pkt, ready)
}

// TestWakeupHiddenTiming: a look-ahead wakeup costs TWakeup−WakeupHidden
// cycles; an NI wakeup costs the full TWakeup. Verify via single-packet
// latency through a fully gated network vs an active one.
func TestWakeupHiddenTiming(t *testing.T) {
	lat := func(gated bool) int64 {
		cfg := testConfig(4, 4, 1, 512)
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		if gated {
			net.SetGatingPolicy(core.BaselineGating{})
			net.Run(50)
		}
		p := net.NewPacket(0, 3, noc.ClassSynthetic, 512) // 3 hops along the top row
		net.Run(300)
		if p.ArriveTime == 0 {
			t.Fatal("packet stuck")
		}
		return p.Latency()
	}
	active := lat(false)
	gated := lat(true)
	extra := gated - active
	// Lower bound: at least the NI wake (10, unhidden). Upper bound: NI
	// wake + per-hop partially hidden wakes; with 3 hops the pessimal sum
	// is 10 + 3*(10-3) = 31, plus scheduling slack.
	if extra < 10 || extra > 40 {
		t.Errorf("gated wake-up overhead = %d cycles (active %d, gated %d), want within [10, 40]", extra, active, gated)
	}
}

// TestSubnetZeroNeverSleepsUnderCatnap: even after long idle, Catnap
// keeps subnet 0 fully active for connectivity.
func TestSubnetZeroNeverSleepsUnderCatnap(t *testing.T) {
	cfg := testConfig(8, 8, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	det := newDetector(t, net)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	net.Run(2000)
	if a := awakeRouters(net, 0); a != cfg.Nodes() {
		t.Fatalf("subnet 0 has only %d/%d active routers after idling", a, cfg.Nodes())
	}
	for s := 1; s < 4; s++ {
		if a := awakeRouters(net, s); a != 0 {
			t.Fatalf("idle subnet %d still has %d active routers", s, a)
		}
	}
}
