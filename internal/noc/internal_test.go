package noc

// White-box tests for the router's internal machinery: the VC ring
// buffer, the staging wheels, wormhole state transitions, and the power
// state machine's timing.

import (
	"testing"
	"testing/quick"

	"github.com/catnap-noc/catnap/internal/topology"
)

func internalConfig() Config {
	return Config{
		Rows: 2, Cols: 2, TilesPerNode: 4, RegionDim: 2,
		Subnets: 1, LinkWidthBits: 512,
		VCs: 2, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
}

type firstReady struct{}

func (firstReady) Select(now int64, node int, pkt *Packet, ready []bool) int {
	for s, ok := range ready {
		if ok {
			return s
		}
	}
	return -1
}

func TestVCRingBuffer(t *testing.T) {
	vc := vcState{q: make([]flit, 4), outVC: -1}
	if !vc.empty() {
		t.Fatal("fresh VC not empty")
	}
	p := &Packet{NumFlits: 8}
	for i := 0; i < 4; i++ {
		vc.push(flit{pkt: p, seq: int32(i)})
	}
	if vc.empty() || vc.count != 4 {
		t.Fatalf("count = %d", vc.count)
	}
	// FIFO order across wraparound.
	for i := 0; i < 2; i++ {
		if f := vc.pop(); f.seq != int32(i) {
			t.Fatalf("pop %d: seq %d", i, f.seq)
		}
	}
	vc.push(flit{pkt: p, seq: 4})
	vc.push(flit{pkt: p, seq: 5})
	for i := 2; i < 6; i++ {
		if f := vc.pop(); f.seq != int32(i) {
			t.Fatalf("pop: want seq %d got %d", i, f.seq)
		}
	}
	if !vc.empty() {
		t.Fatal("VC should be empty")
	}
}

func TestVCOverflowPanics(t *testing.T) {
	vc := vcState{q: make([]flit, 2)}
	p := &Packet{NumFlits: 4}
	vc.push(flit{pkt: p})
	vc.push(flit{pkt: p, seq: 1})
	defer func() {
		if recover() == nil {
			t.Error("overflow should panic (credit accounting bug)")
		}
	}()
	vc.push(flit{pkt: p, seq: 2})
}

// TestVCPopClearsPacketRef: popped slots must not retain the packet (GC
// hygiene for long simulations).
func TestVCPopClearsPacketRef(t *testing.T) {
	vc := vcState{q: make([]flit, 2)}
	p := &Packet{NumFlits: 1}
	vc.push(flit{pkt: p})
	vc.pop()
	if vc.q[0].pkt != nil {
		t.Error("pop retained the packet reference")
	}
}

// TestWheelWrap: events staged across the wheel's wrap point must arrive
// at the right cycles.
func TestWheelWrap(t *testing.T) {
	net, err := New(internalConfig(), firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	s := net.subnets[0]
	// Run the clock close to a wheel multiple, then stage and check.
	net.Run(int64(s.wheelSize*3 - 2))
	base := net.Now()
	p := &Packet{ID: 1, Dst: 0, NumFlits: 1}
	s.stageArrival(base+2, 0, int(topology.North), 0, flit{pkt: p, nextPort: uint8(topology.Local)})
	net.Step() // base: nothing arrives
	if got := s.routers[0].TotalOccupancy(); got != 0 {
		t.Fatalf("early arrival: occupancy %d", got)
	}
	net.Step() // base+1: still nothing
	if got := s.routers[0].TotalOccupancy(); got != 0 {
		t.Fatalf("early arrival: occupancy %d", got)
	}
	net.Step() // base+2: the flit lands
	if got := s.routers[0].TotalOccupancy(); got != 1 {
		t.Fatalf("arrival missed: occupancy %d", got)
	}
}

// TestWormholeStatePersistsAcrossEmptyBuffer: the per-packet route/VC
// allocation must survive the FIFO momentarily draining between head and
// body flits.
func TestWormholeStatePersistsAcrossEmptyBuffer(t *testing.T) {
	net, err := New(internalConfig(), firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-flit packet from node 0 to node 3 (one X hop, one Y hop on the
	// 2x2 mesh): the NI streams one flit per cycle, so at the first
	// router the head can depart before the body arrives.
	pkt := net.NewPacket(0, 3, ClassSynthetic, 1024)
	net.Run(60)
	if pkt.ArriveTime == 0 {
		t.Fatal("packet not delivered")
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestVCAllocateFillsRequestMasks: the incremental VA pass must set bit
// p*VCs+v of req[o] for exactly the occupied slots whose front packet
// holds output o and a downstream VC, latch the route of an unrouted head,
// and never read the flit ring of a VC whose packet is already routed.
func TestVCAllocateFillsRequestMasks(t *testing.T) {
	cfg := internalConfig()
	cfg.Rows, cfg.Cols, cfg.RegionDim = 3, 3, 3
	cfg.VCs = 4
	net, err := New(cfg, firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	r := &net.subnets[0].routers[4] // the centre router links all five outputs
	if !r.slotMask {
		t.Fatal("mesh router takes the scan fallback")
	}
	nports := len(r.in)
	outOf := func(p, v int) int { return (p + v) % nports } // four slots per output
	// Output 0's downstream VCs are all held elsewhere: heads bound there
	// latch a route but win no downstream VC, so they must not request.
	const blocked = 0
	for v := range r.out[blocked].busy {
		r.out[blocked].busy[v] = true
	}
	pkts := make([]*Packet, nports*cfg.VCs)
	for p := 0; p < nports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			pkts[p*cfg.VCs+v] = &Packet{NumFlits: 3}
			r.deliver(0, p, v, flit{pkt: pkts[p*cfg.VCs+v], nextPort: uint8(outOf(p, v))})
		}
	}
	// Slot (2, 1) instead holds a body flit of a packet routed to its
	// output in an earlier cycle, owning downstream VC 0. Its ring is
	// detached so any front-flit read panics.
	const bp, bv = 2, 1
	body := &r.in[bp].vcs[bv]
	body.pop()
	body.push(flit{pkt: pkts[bp*cfg.VCs+bv], seq: 1})
	body.curPkt, body.outPort, body.outVC, body.routeSet = pkts[bp*cfg.VCs+bv], outOf(bp, bv), 0, true
	r.out[outOf(bp, bv)].busy[0] = true
	ring := body.q
	body.q = nil

	var req reqMasks
	for o := range req {
		req[o] = ^uint64(0) // stale bits from a previous router must be cleared
	}
	r.vcAllocate(&req)
	body.q = ring

	var want reqMasks
	for p := 0; p < nports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			if o := outOf(p, v); o != blocked {
				want[o] |= 1 << uint(p*cfg.VCs+v)
			}
			if p == bp && v == bv {
				continue
			}
			vc := &r.in[p].vcs[v]
			if !vc.routeSet || vc.outPort != outOf(p, v) || vc.curPkt != pkts[p*cfg.VCs+v] {
				t.Errorf("slot (%d,%d): head route not latched (routeSet=%v outPort=%d)", p, v, vc.routeSet, vc.outPort)
			}
		}
	}
	for o := 0; o < nports; o++ {
		if req[o] != want[o] {
			t.Errorf("req[%d] = %#x, want %#x", o, req[o], want[o])
		}
	}
}

// TestPowerStateTimings: wake() must honour the delay and keep the
// earliest completion when signals race.
func TestPowerStateTimings(t *testing.T) {
	net, err := New(internalConfig(), firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	sub := net.subnets[0]
	r := &sub.routers[0]
	r.sleep(100, 4)
	if sub.pstate[0] != PowerAsleep {
		t.Fatal("sleep failed")
	}
	r.wake(100, 10, WakeNI)
	if sub.pstate[0] != PowerWaking || r.wakeAt != 110 {
		t.Fatalf("state=%v wakeAt=%d", sub.pstate[0], r.wakeAt)
	}
	// A faster signal (look-ahead) accelerates the wake.
	r.wake(101, 7, WakeLookAhead)
	if r.wakeAt != 108 {
		t.Fatalf("wakeAt=%d, want 108 (earliest wins)", r.wakeAt)
	}
	// A slower one does not delay it.
	r.wake(102, 10, WakeNI)
	if r.wakeAt != 108 {
		t.Fatalf("wakeAt=%d after slower signal", r.wakeAt)
	}
	// Waking a running router is a no-op.
	sub.pstate[0] = PowerActive
	r.wake(200, 10, WakeNI)
	if sub.pstate[0] != PowerActive {
		t.Fatal("wake disturbed an active router")
	}
}

// TestFlitsForWidthProperty: serialization length is ceil(size/width),
// at least 1, and total bits carried never shrink.
func TestFlitsForWidthProperty(t *testing.T) {
	f := func(size uint16, widthSel uint8) bool {
		widths := []int{64, 128, 256, 512}
		w := widths[int(widthSel)%len(widths)]
		n := FlitsForWidth(int(size), w)
		if n < 1 {
			return false
		}
		if int(size) > 0 && (n-1)*w >= int(size) {
			return false // too many flits
		}
		return n*w >= int(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlitHeadTail(t *testing.T) {
	p := &Packet{NumFlits: 3}
	cases := []struct {
		seq        int32
		head, tail bool
	}{{0, true, false}, {1, false, false}, {2, false, true}}
	for _, c := range cases {
		f := flit{pkt: p, seq: c.seq}
		if f.head() != c.head || f.tail() != c.tail {
			t.Errorf("seq %d: head=%v tail=%v", c.seq, f.head(), f.tail())
		}
	}
	single := flit{pkt: &Packet{NumFlits: 1}}
	if !single.head() || !single.tail() {
		t.Error("single-flit packet must be head and tail")
	}
}

func TestConfigValidate(t *testing.T) {
	good := internalConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.TilesPerNode = 0 },
		func(c *Config) { c.RegionDim = 3 },
		func(c *Config) { c.Subnets = 0 },
		func(c *Config) { c.LinkWidthBits = 0 },
		func(c *Config) { c.VCs = 33 },
		func(c *Config) { c.VCDepth = 0 },
		func(c *Config) { c.InjQueueFlits = 0 },
		func(c *Config) { c.RouterDelay = 0 },
		func(c *Config) { c.LinkDelay = 0 },
		func(c *Config) { c.CreditDelay = -1 },
		func(c *Config) { c.WakeupHidden = c.TWakeup + 1 },
		func(c *Config) { c.TBreakeven = -1 },
	}
	for i, m := range mutations {
		c := internalConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestClassVCMaskResolution(t *testing.T) {
	c := internalConfig()
	c.VCs = 4
	if m := c.vcMask(ClassSynthetic); m != 0xF {
		t.Errorf("zero mask should mean all VCs, got %#x", m)
	}
	c.ClassVCMask[ClassRequest] = 1 << 0
	if m := c.vcMask(ClassRequest); m != 1 {
		t.Errorf("explicit mask mangled: %#x", m)
	}
	// Masks are clipped to the configured VC count.
	c.ClassVCMask[ClassAck] = 0xFF00 | 1<<1
	if m := c.vcMask(ClassAck); m != 1<<1 {
		t.Errorf("mask not clipped: %#x", m)
	}
}

func TestPowerStateString(t *testing.T) {
	if PowerActive.String() != "active" || PowerAsleep.String() != "asleep" || PowerWaking.String() != "waking" {
		t.Error("state names changed")
	}
}

// TestWheelDelayCrossesWheelSize pins the staging wheel's wrap behavior
// at its capacity boundary: staged between cycles, the longest
// representable delay is wheelSize-1 (delay wheelSize would alias the
// slot the next deliver phase drains). Such an event's slot index wraps
// below the current cycle's slot, and it must survive every intermediate
// drain and fire exactly at its scheduled cycle — not a revolution early.
func TestWheelDelayCrossesWheelSize(t *testing.T) {
	net, err := New(internalConfig(), firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	s := net.subnets[0]
	// Land mid-wheel so slot(at) < slot(base): the index computation has
	// to wrap across a wheelSize multiple.
	net.Run(int64(s.wheelSize*5 - 3))
	base := net.Now()
	at := base + int64(s.wheelSize) - 1
	if s.slot(at) >= s.slot(base) {
		t.Fatalf("fixture lost its wrap: slot(at)=%d slot(base)=%d", s.slot(at), s.slot(base))
	}
	p := &Packet{ID: 7, Dst: 0, NumFlits: 1}
	s.stageArrival(at, 0, int(topology.North), 0, flit{pkt: p, nextPort: uint8(topology.Local)})
	for now := base; now < at; now++ {
		net.Step()
		if got := s.routers[0].TotalOccupancy(); got != 0 {
			t.Fatalf("cycle %d: flit arrived %d cycles early (occupancy %d)", now, at-now-1, got)
		}
	}
	net.Step() // cycle == at: the slot comes around again and drains
	if got := s.routers[0].TotalOccupancy(); got != 1 {
		t.Fatalf("flit lost across wheel wrap: occupancy %d", got)
	}
}

// TestDrainDeadline: Drain must report failure when the deadline expires
// with packets still in flight, stop stepping at the deadline, and
// succeed once given enough cycles.
func TestDrainDeadline(t *testing.T) {
	net, err := New(internalConfig(), firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	pkt := net.NewPacket(0, 3, ClassSynthetic, 1024)
	start := net.Now()
	// Serialization + two hops cannot complete in 2 cycles.
	if net.Drain(2) {
		t.Fatal("Drain reported success with a packet in flight")
	}
	if net.Now() != start+2 {
		t.Fatalf("Drain overran its deadline: stepped %d cycles, budget 2", net.Now()-start)
	}
	if net.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", net.InFlight())
	}
	if !net.Drain(1000) {
		t.Fatal("Drain failed with ample budget")
	}
	if pkt.ArriveTime == 0 {
		t.Fatal("packet never delivered")
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
