package noc

// White-box tests for the router's internal machinery: the VC ring
// buffer, the staging wheels, wormhole state transitions, and the power
// state machine's timing.

import (
	"testing"
	"testing/quick"
	"unsafe"

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

// testFlit builds flit seq of pkt as NI.streamFlit does, the tail flag
// included, with port as its look-ahead route. Every test that makes
// flits by hand goes through it, so tails stay tails.
func testFlit(pkt *Packet, seq, port int) flit {
	return flit{pkt: pkt, seq: int32(seq), nextPort: uint16(port), last: seq == pkt.NumFlits-1}
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
		vc.push(testFlit(p, i, 0))
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
	vc.push(testFlit(p, 4, 0))
	vc.push(testFlit(p, 5, 0))
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
	vc.push(testFlit(p, 0, 0))
	vc.push(testFlit(p, 1, 0))
	defer func() {
		if recover() == nil {
			t.Error("overflow should panic (credit accounting bug)")
		}
	}()
	vc.push(testFlit(p, 2, 0))
}

// TestVCPopClearsPacketRef: popped slots must not retain the packet (GC
// hygiene for long simulations).
func TestVCPopClearsPacketRef(t *testing.T) {
	vc := vcState{q: make([]flit, 2)}
	p := &Packet{NumFlits: 1}
	vc.push(testFlit(p, 0, 0))
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
	net.Run(int64(len(s.arrivals)*3 - 2))
	base := net.Now()
	p := &Packet{ID: 1, Dst: 0, NumFlits: 1}
	s.stageArrival(base+2, 0, int(topology.North), 0, testFlit(p, 0, int(topology.Local)))
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

// TestVCAllocateFillsRequestMasks: the incremental VA pass must add bit
// p*VCs+v to ready and to req[o] for exactly the occupied slots whose
// front packet wins a downstream VC on output o, latch the route of an
// unrouted head, keep the bits of slots that were ready before, and never
// visit a ready slot.
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
	all := uint32(1)<<uint(cfg.VCs) - 1
	r.out[blocked].busy = all
	pkts := make([]*Packet, nports*cfg.VCs)
	for p := 0; p < nports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			pkts[p*cfg.VCs+v] = &Packet{NumFlits: 3}
			r.deliver(0, p, v, testFlit(pkts[p*cfg.VCs+v], 0, outOf(p, v)))
		}
	}
	// Slot (2, 1) instead holds a body flit of a packet that won its route
	// and downstream VC 0 in an earlier cycle, so it is already ready. Its
	// ring is detached so any front-flit read panics, and a visit would
	// hand it a second downstream VC.
	const bp, bv = 2, 1
	body := &r.vcs[bp*cfg.VCs+bv]
	body.pop()
	body.push(testFlit(pkts[bp*cfg.VCs+bv], 1, 0))
	body.outPort, body.outVC, body.allowed = outOf(bp, bv), 0, all
	r.out[outOf(bp, bv)].busy |= 1
	bodyBit := uint64(1) << uint(bp*cfg.VCs+bv)
	r.ready = bodyBit
	r.req[outOf(bp, bv)] = bodyBit
	ring := body.q
	body.q = nil

	r.vcAllocate()
	body.q = ring

	var want [maskPorts]uint64
	var wantReady uint64
	for p := 0; p < nports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			if o := outOf(p, v); o != blocked {
				want[o] |= 1 << uint(p*cfg.VCs+v)
				wantReady |= 1 << uint(p*cfg.VCs+v)
			}
			if p == bp && v == bv {
				continue
			}
			vc := &r.vcs[p*cfg.VCs+v]
			if vc.outPort != outOf(p, v) || vc.allowed != cfg.vcMask(pkts[p*cfg.VCs+v].Class) {
				t.Errorf("slot (%d,%d): head route not latched (outPort=%d allowed=%#x)", p, v, vc.outPort, vc.allowed)
			}
		}
	}
	if body.outVC != 0 {
		t.Errorf("VA visited the ready slot (%d,%d): outVC %d, want 0", bp, bv, body.outVC)
	}
	for o := 0; o < nports; o++ {
		if r.req[o] != want[o] {
			t.Errorf("req[%d] = %#x, want %#x", o, r.req[o], want[o])
		}
	}
	if r.ready != wantReady {
		t.Errorf("ready = %#x, want %#x", r.ready, wantReady)
	}
	// Four slots route to each output, and each wins one of its four
	// downstream VCs; the blocked output keeps the VCs held elsewhere.
	for o := 0; o < nports; o++ {
		if r.out[o].busy != all {
			t.Errorf("out[%d].busy = %#x, want %#x", o, r.out[o].busy, all)
		}
		if busy, dup := r.busyScan(o); o != blocked && (dup || busy != r.out[o].busy) {
			t.Errorf("out[%d].busy = %#x, but the VC states hold %#x (dup %v)", o, r.out[o].busy, busy, dup)
		}
	}
	ready, req, _ := r.allocMasksScan(0)
	if r.ready != ready || r.req != req {
		t.Error("persistent masks disagree with allocMasksScan")
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

// TestFlitHeadTail: the NI marks exactly each packet's last flit as its
// tail (tail() reads that flag, not the packet), and testFlit agrees.
func TestFlitHeadTail(t *testing.T) {
	net, err := New(internalConfig(), firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	s := net.subnets[0]
	for _, nf := range []int{1, 3} {
		p := net.NewPacket(0, 3, ClassSynthetic, nf*net.cfg.LinkWidthBits)
		// The NI streams one flit per cycle onto node 0's local port.
		var got []arrival
		for k := 0; k < nf; k++ {
			now := net.Now()
			net.Step()
			for _, a := range s.arrivals[s.slot(now+int64(net.cfg.LinkDelay))] {
				if a.node == 0 && int(a.port) == net.localPort {
					got = append(got, a)
				}
			}
		}
		if len(got) != nf {
			t.Fatalf("%d-flit packet: NI streamed %d flits", nf, len(got))
		}
		for i, a := range got {
			f := a.f
			if f.pkt != p || int(f.seq) != i {
				t.Fatalf("%d-flit packet: flit %d is seq %d of another packet", nf, i, f.seq)
			}
			if f.head() != (i == 0) || f.tail() != (i == nf-1) || f.last != (i == nf-1) {
				t.Errorf("%d-flit packet, seq %d: head=%v tail=%v last=%v", nf, i, f.head(), f.tail(), f.last)
			}
			if tf := testFlit(p, i, 0); tf.head() != f.head() || tf.tail() != f.tail() {
				t.Errorf("%d-flit packet, seq %d: testFlit disagrees with the NI", nf, i)
			}
		}
		if !net.Drain(200) {
			t.Fatalf("%d-flit packet did not drain", nf)
		}
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestHotRecordSizes pins the layouts every hop copies: the flit through
// a VC ring, the staged records that carry flits and credits, and the
// feeder entry a credit return reads.
func TestHotRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layouts are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"flit", unsafe.Sizeof(flit{}), 24},
		{"arrival", unsafe.Sizeof(arrival{}), 32},
		{"credit", unsafe.Sizeof(credit{}), 8},
		{"niCredit", unsafe.Sizeof(niCredit{}), 8},
		{"ejection", unsafe.Sizeof(ejection{}), 32},
		{"feederLink", unsafe.Sizeof(feederLink{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
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
		func(c *Config) { c.Rows, c.Cols, c.RegionDim = 1, 1, 1 },        // one node: no destination
		func(c *Config) { c.Rows, c.RegionDim = maxMeshDim+2, 1 },        // node ids past the narrowed fields
		func(c *Config) { c.AppTraffic, c.VCs = true, 3 },                // the ack class gets no VC
		func(c *Config) { c.AppTraffic, c.Torus, c.VCs = true, true, 4 }, // datelines hold the VCs
	}
	for i, m := range mutations {
		c := internalConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestClassVCMaskResolution pins vcMask: every configured VC without
// AppTraffic; under it, a class's appClassVCMask entry, and every VC for
// synthetic traffic, which has none. Together the entries use exactly
// VCs 0-3, the 4 VCs Validate requires of AppTraffic.
func TestClassVCMaskResolution(t *testing.T) {
	c := internalConfig()
	c.VCs = 6
	for class := range NumClasses {
		if m := c.vcMask(class); m != 0x3F {
			t.Errorf("class %v without AppTraffic: mask %#x, want every VC", class, m)
		}
	}
	c.AppTraffic = true
	if m := c.vcMask(ClassSynthetic); m != 0x3F {
		t.Errorf("synthetic class under AppTraffic: mask %#x, want every VC", m)
	}
	var used uint32
	for class := range ClassSynthetic { // the protocol classes precede it
		want := appClassVCMask[class]
		used |= want
		if m := c.vcMask(class); want == 0 || m != want {
			t.Errorf("class %v under AppTraffic: mask %#x, want its nonzero entry %#x", class, m, want)
		}
	}
	if used != 0xF {
		t.Errorf("the class map uses VCs %#x, want exactly VCs 0-3", used)
	}
}

func TestPowerStateString(t *testing.T) {
	if PowerActive.String() != "active" || PowerAsleep.String() != "asleep" || PowerWaking.String() != "waking" {
		t.Error("state names changed")
	}
}

// TestWheelDelayCrossesWheelSize pins the staging wheel's wrap behavior
// at its capacity boundary: staged between cycles, the longest
// representable delay is one less than the wheel's size (a delay of the
// full size would alias the slot the next deliver phase drains). Such
// an event's slot index wraps below the current cycle's slot, and it
// must survive every intermediate drain and fire exactly at its
// scheduled cycle — not a revolution early.
// It runs at the paper's delays and at slower ones whose bounds are not
// powers of two (a 16-slot staging wheel for a bound of 10).
func TestWheelDelayCrossesWheelSize(t *testing.T) {
	slow := internalConfig()
	slow.RouterDelay, slow.LinkDelay, slow.CreditDelay, slow.TIdleDetect = 3, 2, 2, 7
	for _, cfg := range []Config{internalConfig(), slow} {
		net, err := New(cfg, firstReady{})
		if err != nil {
			t.Fatal(err)
		}
		s := net.subnets[0]
		ws := len(s.arrivals)
		// Every wheel is the least power of two covering its delay bound.
		for _, w := range []struct {
			name        string
			size, bound int
		}{
			{"staging", ws, cfg.RouterDelay + cfg.LinkDelay + cfg.CreditDelay + 4},
			{"eligibility", len(s.eligWheel), cfg.RouterDelay + 1},
			{"check", len(s.checkWheel), cfg.TIdleDetect + 2},
		} {
			if w.size&(w.size-1) != 0 || w.size < w.bound || w.size >= 2*w.bound {
				t.Errorf("delays %d/%d/%d: %s wheel has %d slots for bound %d", cfg.RouterDelay, cfg.LinkDelay, cfg.CreditDelay, w.name, w.size, w.bound)
			}
		}
		// Land mid-wheel so slot(at) < slot(base): the index computation
		// has to wrap across a multiple of the wheel's size.
		net.Run(int64(ws*5 - 3))
		base := net.Now()
		at := base + int64(ws) - 1
		if s.slot(at) >= s.slot(base) {
			t.Fatalf("fixture lost its wrap: slot(at)=%d slot(base)=%d", s.slot(at), s.slot(base))
		}
		p := &Packet{ID: 7, Dst: 0, NumFlits: 1}
		s.stageArrival(at, 0, int(topology.North), 0, testFlit(p, 0, int(topology.Local)))
		for now := base; now < at; now++ {
			net.Step()
			if got := s.routers[0].TotalOccupancy(); got != 0 {
				t.Fatalf("cycle %d: flit arrived %d cycles early (occupancy %d)", now, at-now-1, got)
			}
		}
		net.Step() // cycle == at: the slot comes around again and drains
		if got := s.routers[0].TotalOccupancy(); got != 1 {
			t.Fatalf("wheel of %d slots: flit lost across the wrap: occupancy %d", ws, got)
		}
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
