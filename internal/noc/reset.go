package noc

import (
	"fmt"

	"github.com/catnap-noc/catnap/internal/stats"
)

// In-place reset (see DESIGN.md §4i). Reset rewinds an existing Network to
// the exact state New(cfg, selector) would produce, reusing every
// allocation whose shape still fits and reallocating only the slabs that
// changed. New itself is a thin shell over Reset — a fresh network and a
// reset one run the same construction code, which is what makes the
// bit-identity the reset differential suite asserts structural rather
// than coincidental.
//
// Reset invariants:
//
//   - Everything mutable is rewound: wheels are emptied with their stale
//     *Packet references dropped, SoA slabs and bitmaps are zeroed,
//     routers are rebuilt over the pooled storage, NI queues and channels
//     are cleared, counters and latency accumulators reset.
//   - Installed hooks are removed: observers, sinks, the power tracer, and
//     the gating policy are cleared, and the execution mode returns to the
//     New default (incremental, recycling off, idle-skip off). Callers
//     re-install what they need, exactly as they would after New.
//   - Deliberately retained across resets: the NI packet freelists
//     (NewPacket overwrites every field of a recycled packet), warmed
//     slice capacity, and each router's CSC tracker struct (its counters
//     are reset via stats.CSC.Reset).
//   - Shared immutable precompute (topology, feeder table) is swapped by
//     key, never mutated.
//
// The reflection completeness test (reset_coverage_test.go) walks the
// Network/Subnet/Router/NI structs and fails on any field that is neither
// reset here nor listed in its explicit immutable-allowlist, so new fields
// cannot silently leak state across reuses.

// Reset rewinds the network in place to the cycle-0 state New(cfg,
// selector) would produce (see the invariants above). On error the
// network is unchanged and still usable with its previous configuration.
func (n *Network) Reset(cfg Config, selector SubnetSelector) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if selector == nil {
		return fmt.Errorf("noc: nil subnet selector")
	}

	pc := sharedPrecomp(&cfg)
	n.cfg = &cfg
	n.pre = pc
	n.topo = pc.topo
	n.localPort = pc.topo.Radix() - 1
	n.selector = selector
	n.gating = nil
	n.epochFn = nil
	for i := range n.obs {
		n.obs[i] = nil
	}
	n.obs = n.obs[:0]
	n.tracer = nil

	n.now = 0
	n.nextPktID = 0
	for i := range n.sinks {
		n.sinks[i] = nil
	}
	n.sinks = n.sinks[:0]
	n.inFlight = 0
	if n.latency == nil {
		n.latency = stats.NewLatency(0)
		n.netLatency = stats.NewLatency(0)
	} else {
		n.latency.Reset()
		n.netLatency.Reset()
	}

	// Execution mode back to the New default; Simulator/callers re-apply
	// their SetExecMode after Reset exactly as they do after New. refScan
	// is forced off directly (not via applyReferenceScan): the pristine
	// state rebuilt below is already consistent with the incremental path.
	n.recycle = false
	n.refScan = false
	n.idleSkip = false

	// Surplus subnets and NIs beyond the new shape are retained in the
	// backing arrays (reviveSlice shortens len, not cap) rather than
	// dropped: sweep grids oscillate subnet counts, and a retained subnet
	// revives with its wired shape and warmed pools intact, so regrowing
	// 1-subnet -> 4-subnet costs three cheap resets instead of three
	// fresh builds. The memory held is bounded by the high-water shape of
	// the sweep, which is exactly what a reuse pool signs up for.
	n.subnets = reviveSlice(n.subnets, cfg.Subnets)
	for s := range n.subnets {
		if n.subnets[s] == nil {
			n.subnets[s] = &Subnet{net: n, index: s, events: &PowerEvents{}}
		}
		n.subnets[s].reset()
	}
	n.nis = reviveSlice(n.nis, cfg.Nodes())
	for i := range n.nis {
		if n.nis[i] == nil {
			n.nis[i] = &NI{net: n, node: i}
		}
		n.nis[i].reset()
	}

	words := (cfg.Nodes() + 63) / 64
	n.niQueueFlits = 0
	n.niQBits = resetSlice(n.niQBits, words)
	n.niWorkBits = resetSlice(n.niWorkBits, words)
	n.flitsPerSubnet = resetSlice(n.flitsPerSubnet, cfg.Subnets)

	n.injectedPkts = 0
	n.ejectedPkts = 0
	n.ejectedFlits = 0
	n.createdPkts = 0
	return nil
}

// reset rewinds the subnet to its cycle-0 state under the network's
// (possibly new) configuration, reusing shape-compatible slabs. Routers
// keep their CSC tracker structs (counters reset) so a reused simulator
// does not reallocate one per router per point.
func (s *Subnet) reset() {
	net := s.net
	cfg := net.cfg
	nodes := cfg.Nodes()
	radix := net.topo.Radix()

	*s.events = PowerEvents{}
	s.feeder = net.pre.feeder

	s.wheelSize = cfg.RouterDelay + cfg.LinkDelay + cfg.CreditDelay + 4
	s.arrivals = resetWheel(s.arrivals, s.wheelSize)
	s.credits = resetWheel(s.credits, s.wheelSize)
	s.niCredits = resetWheel(s.niCredits, s.wheelSize)
	s.ejections = resetWheel(s.ejections, s.wheelSize)

	s.refScan = false
	words := (nodes + 63) / 64
	s.occBits = resetSlice(s.occBits, words)
	s.wakingBits = resetSlice(s.wakingBits, words)
	s.asleepBits = resetSlice(s.asleepBits, words)
	s.blockedBits = resetSlice(s.blockedBits, words)
	s.pollBits = resetSlice(s.pollBits, words)
	s.dueBits = resetSlice(s.dueBits, words)
	s.workBits = resetSlice(s.workBits, words)
	s.stateCount = [3]int{}
	s.stateCount[PowerActive] = nodes
	s.bufferedFlits = 0
	s.bfmHist = resetSlice(s.bfmHist, cfg.VCs*cfg.VCDepth+1)
	s.bfmHist[0] = int32(nodes)
	s.bfmMax = 0
	s.checkWheel = resetWheel(s.checkWheel, cfg.TIdleDetect+2)
	s.lastEpoch = ^uint64(0)

	s.radix = radix
	s.pstate = resetSlice(s.pstate, nodes)
	s.occSlots = resetSlice(s.occSlots, nodes)
	s.lastBusy = resetSlice(s.lastBusy, nodes)
	for n := range s.lastBusy {
		s.lastBusy[n] = -1 // never busy yet: idle(now) == now+1 == now-emptySince+1
	}
	s.pinnedUntil = resetSlice(s.pinnedUntil, nodes)

	// Wiring: pool sizes, router slice views, and link-derived port
	// constants are pure functions of the shape, so they are rebuilt only
	// when the shape changed. A same-shape reset — the hot case in sweeps —
	// keeps every view and sweeps only the run-state values below.
	shape := wireShape{nodes: nodes, radix: radix, vcs: cfg.VCs, vcdepth: cfg.VCDepth, topo: net.topo}
	if shape != s.wired {
		s.wired = shape
		s.inPool = resetSlice(s.inPool, nodes*radix)
		s.outPool = resetSlice(s.outPool, nodes*radix)
		s.vcPool = resetSlice(s.vcPool, nodes*radix*cfg.VCs)
		s.flitPool = resetSlice(s.flitPool, nodes*radix*cfg.VCs*cfg.VCDepth)
		s.outCredits = resetSlice(s.outCredits, nodes*radix*cfg.VCs)
		s.busyPool = resetSlice(s.busyPool, nodes*radix*cfg.VCs)
		s.grantPool = resetSlice(s.grantPool, nodes*radix)
		s.routers = reviveSlice(s.routers, nodes)
		for n := range s.routers {
			// Zero every router field except the retained CSC tracker, then
			// re-wire the router over the freshly zeroed pools.
			s.routers[n] = Router{csc: s.routers[n].csc}
			s.routers[n].wire(s, n)
		}
		for i := range s.vcPool {
			s.vcPool[i].outVC = -1 // cycle-0 value on the freshly zeroed pool
		}
	} else {
		// Run-state sweep over the retained pools. The bool scratch pools
		// clear in bulk; vcState keeps its ring view and has its per-run
		// fields rewound element-wise (outVC's cycle-0 value is -1, so a
		// bulk clear would be wrong anyway). Flit rings clear only their
		// live span: vcState.pop zeroes each slot it drains, so slots
		// outside [head, head+count) are already pristine and the sweep is
		// O(buffered flits), not O(pool). outCredits is NOT bulk-filled:
		// only linked ports carry credits, and rearm refills exactly those
		// through each router's credit views, leaving unlinked slots at the
		// zero a fresh build gives them.
		clear(s.busyPool)
		clear(s.grantPool)
		for i := range s.vcPool {
			vc := &s.vcPool[i]
			for k := 0; k < vc.count; k++ {
				vc.q[(vc.head+k)%len(vc.q)] = flit{}
			}
			vc.head = 0
			vc.count = 0
			vc.curPkt = nil
			vc.outPort = 0
			vc.outVC = -1
			vc.routeSet = false
			vc.crossed = 0
		}
	}
	// Run-state values, every reset, through the (possibly retained) views.
	for n := range s.routers {
		s.routers[n].rearm(cfg)
	}
}

// clear empties the queue in place, nilling every slot so dequeued
// packets are not retained, and keeps the ring's capacity.
func (q *pktQueue) clear() {
	for i := range q.buf {
		q.buf[i] = nil
	}
	q.head = 0
	q.n = 0
}

// reset rewinds the NI to its cycle-0 state under the network's (possibly
// new) configuration. The packet freelist is deliberately retained:
// NewPacket overwrites every field of a recycled packet, so stale
// contents cannot leak, and dropping the freelist would forfeit the
// recycling warm-up across points.
func (ni *NI) reset() {
	cfg := ni.net.cfg
	ni.sourceQ.clear()
	ni.injQ.clear()
	ni.injQFlits = 0
	ni.channels = reviveSlice(ni.channels, cfg.Subnets)
	for s := range ni.channels {
		ch := &ni.channels[s]
		ch.streams = resetSlice(ch.streams, cfg.VCs)
		ch.credits = resetSlice(ch.credits, cfg.VCs)
		for v := range ch.credits {
			ch.credits[v] = cfg.VCDepth
		}
		ch.busy = resetSlice(ch.busy, cfg.VCs)
		ch.rr = 0
		ch.active = 0
	}
	ni.FlitsInjected = 0
	ni.PacketsInjected = 0
	ni.FlitsPerSubnet = resetSlice(ni.FlitsPerSubnet, cfg.Subnets)
	ni.readyScratch = resetSlice(ni.readyScratch, cfg.Subnets)
	ni.activeScratch = resetSlice(ni.activeScratch, cfg.Subnets)
}
