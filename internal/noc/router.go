package noc

import (
	"math/bits"

	"github.com/catnap-noc/catnap/internal/stats"
	"github.com/catnap-noc/catnap/internal/topology"
)

// PowerState is the power-gating state of a router and its associated
// links (paper Figure 5).
type PowerState uint8

// Router power states. A router transitions Active→Asleep in one cycle
// when the gating policy permits, and Asleep→Waking→Active over the
// wake-up delay while the local voltage rail recharges.
const (
	PowerActive PowerState = iota
	PowerAsleep
	PowerWaking
)

// String returns the state name.
func (s PowerState) String() string {
	switch s {
	case PowerActive:
		return "active"
	case PowerAsleep:
		return "asleep"
	case PowerWaking:
		return "waking"
	default:
		return "invalid"
	}
}

// vcState is one virtual-channel FIFO on an input port, together with the
// wormhole allocation state of the packet currently draining through it.
// The FIFO may hold flits of more than one packet back to back (a new
// packet's head can be buffered behind the previous packet's tail), but
// route/VC allocation always describes the packet at the front.
type vcState struct {
	q     []flit // ring buffer, len == VCDepth
	head  int
	count int

	// Wormhole state for the front packet. Persists from the head flit's
	// allocation until the tail flit traverses the switch, even across
	// cycles where the FIFO is momentarily empty (body flits in flight).
	curPkt   *Packet
	outPort  int
	outVC    int8
	routeSet bool
	// crossed snapshots the head flit's dateline bits when the route is
	// latched (torus mode only).
	crossed uint8
}

//catnap:hotpath
func (v *vcState) empty() bool { return v.count == 0 }

//catnap:hotpath
func (v *vcState) front() *flit { return &v.q[v.head] }

//catnap:hotpath
func (v *vcState) push(f flit) {
	if v.count == len(v.q) {
		panic("noc: VC buffer overflow (credit accounting bug)")
	}
	v.q[(v.head+v.count)%len(v.q)] = f
	v.count++
}

//catnap:hotpath
func (v *vcState) pop() flit {
	f := v.q[v.head]
	// Zero the whole slot, not just the packet pointer: dequeued packets
	// must not be retained, and keeping drained slots pristine lets a
	// same-shape reset sweep only the live ring spans instead of
	// bulk-clearing the subnet's entire flit pool.
	v.q[v.head] = flit{}
	v.head = (v.head + 1) % len(v.q)
	v.count--
	return f
}

// inputPort is one of a router's five input ports.
type inputPort struct {
	vcs []vcState
	// occupancy is the total buffered flits across the port's VCs; the BFM
	// and BFA congestion metrics read it every cycle, so it is maintained
	// incrementally.
	occupancy int
}

// outputPort tracks downstream buffer credits and downstream virtual
// channel ownership for one of a router's output ports.
type outputPort struct {
	// downstream is the node id of the next router, or -1 for the local
	// (ejection) port and for mesh-edge ports with no link.
	downstream int
	// downInPort is the input port index at the downstream router this
	// link feeds.
	downInPort int
	// credits[v] is the free-slot count of downstream VC v — a subslice
	// of the subnet's flat outCredits array, so the deliver phase can
	// drain credit returns without loading any Router struct. Nil for the
	// Local port, whose ejection sink is not credit-limited (ejection
	// bandwidth is limited structurally to one crossbar grant per cycle).
	credits []int32
	// busy[v] marks downstream VC v as allocated to an in-flight packet
	// (wormhole: held from head allocation to tail traversal).
	busy []bool
	// rr is the round-robin pointer for switch allocation fairness.
	rr int
}

// Router is one input-buffered virtual-channel router in one subnet,
// implementing a two-stage speculative pipeline with look-ahead routing.
type Router struct {
	sub  *Subnet
	node int

	// in/out/grantedInput are subslices of the subnet's contiguous
	// backing pools (inPool/outPool/grantPool): one allocation per
	// subnet per kind, with neighbouring routers on adjacent cache
	// lines. See the struct-of-arrays layout notes on Subnet.
	in  []inputPort
	out []outputPort

	// Power gating state. The state itself lives in Subnet.pstate (flat,
	// indexed by node) so phase loops and downstream-awake checks never
	// load a Router struct for it; read it via State() or sub.pstate.
	wakeAt int64
	// sleptAt is the cycle the current/last sleep period began (telemetry
	// reports the period length on wake).
	sleptAt int64
	// The latest in-flight arrival cycle (may not sleep before it) lives
	// in Subnet.pinnedUntil[node]; the lazy last-busy cycle in
	// Subnet.lastBusy[node].
	//
	// emptySince is the first cycle of the current continuous
	// all-buffers-empty streak (meaningless while occupied). Only the
	// reference scan path maintains it per cycle; the incremental path
	// derives the same idle count from Subnet.lastBusy.
	emptySince int64
	// checkAt is the cycle of the currently scheduled sleep-eligibility
	// check (-1 none). Stale check-wheel entries are skipped by
	// comparing against it, so rescheduling is a single overwrite.
	checkAt int64
	csc     *stats.CSC

	// Incrementally maintained occupancy aggregates: totalOcc mirrors
	// the sum of in[p].occupancy and maxPortOcc its maximum, updated at
	// deliver/traverse so the per-cycle hot paths never rescan ports.
	totalOcc   int
	maxPortOcc int
	// occ points at this router's word in Subnet.occSlots: the non-empty
	// (input port, VC) slot bitmask, bit p*VCs+v. Maintained at deliver
	// (push) and traverse (pop); the allocation stages consult it on the
	// incremental path so empty slots cost one shift instead of a
	// VC-state load. Usable only when every slot fits in the word
	// (slotMask) and every output has a request mask (radix <= 16);
	// other shapes fall back to the full scan.
	occ      *uint64
	slotMask bool

	// Congestion-metric instrumentation (cumulative; readers take deltas).
	blockedFlitCycles int64 // eligible-but-ungranted flit cycles
	grantedFlits      int64 // flits that won switch allocation

	// Per-cycle scratch: which input ports already granted a flit this
	// cycle (one buffer read port per input port).
	grantedInput []bool
	vaRR         int
}

// wire builds the router's shape-pure state: the slice views carved out
// of the subnet's contiguous pools (allocated once per shape in
// Subnet.reset) and the link-derived port constants. Everything wire
// writes is a pure function of the subnet's wireShape, so Subnet.reset
// re-runs it only when the shape changes; rearm handles the run-state
// values on every reset. wire serves fresh construction and shape-changing
// reset alike: the caller hands it a zeroed Router (optionally carrying a
// retained CSC tracker) over freshly zeroed pools.
//
//catnap:reset-covered Subnet.reset zeroes the router and re-runs wire+rearm; same-shape resets re-run rearm over the retained views
func (r *Router) wire(sub *Subnet, node int) {
	cfg := sub.net.cfg
	topo := sub.net.topo
	radix := sub.radix
	r.sub = sub
	r.node = node
	pb := node * radix
	r.in = sub.inPool[pb : pb+radix : pb+radix]
	r.out = sub.outPool[pb : pb+radix : pb+radix]
	r.grantedInput = sub.grantPool[pb : pb+radix : pb+radix]
	r.occ = &sub.occSlots[node]
	r.slotMask = radix*cfg.VCs <= 64 && radix <= len(reqMasks{})
	local := radix - 1
	for p := 0; p < radix; p++ {
		ip := &r.in[p]
		vb := (pb + p) * cfg.VCs
		ip.vcs = sub.vcPool[vb : vb+cfg.VCs : vb+cfg.VCs]
		for v := range ip.vcs {
			qb := (vb + v) * cfg.VCDepth
			ip.vcs[v].q = sub.flitPool[qb : qb+cfg.VCDepth : qb+cfg.VCDepth]
		}
		op := &r.out[p]
		op.downstream = -1
		if p != local {
			if peer, peerPort, ok := topo.Link(node, p); ok {
				op.downstream = peer
				op.downInPort = peerPort
				op.credits = sub.outCredits[vb : vb+cfg.VCs : vb+cfg.VCs]
				op.busy = sub.busyPool[vb : vb+cfg.VCs : vb+cfg.VCs]
			}
		} else {
			op.busy = sub.busyPool[vb : vb+cfg.VCs : vb+cfg.VCs]
		}
	}
}

// rearm rewinds the router's run state to cycle 0 through the existing
// views: per-port occupancy and round-robin cursors, downstream credit
// values, the incremental counters, and the retained CSC tracker. It runs
// on every reset — after wire on a shape change, alone when the shape is
// unchanged — and is the single place cycle-0 router values are defined.
// The flit rings, VC states, busy flags, and grant scratch it does not
// touch are swept by Subnet.reset directly through the backing pools.
func (r *Router) rearm(cfg *Config) {
	if r.csc == nil {
		r.csc = stats.NewCSC(int64(cfg.TBreakeven))
	} else {
		r.csc.Reset(int64(cfg.TBreakeven))
	}
	for p := range r.in {
		r.in[p].occupancy = 0
	}
	for p := range r.out {
		op := &r.out[p]
		op.rr = 0
		for v := range op.credits {
			op.credits[v] = int32(cfg.VCDepth)
		}
	}
	r.wakeAt = 0
	r.sleptAt = 0
	r.totalOcc = 0
	r.maxPortOcc = 0
	r.blockedFlitCycles = 0
	r.grantedFlits = 0
	r.vaRR = 0
	r.emptySince = 0
	r.checkAt = -1
}

// State returns the router's power state.
func (r *Router) State() PowerState { return r.sub.pstate[r.node] }

// CSC returns the router's compensated-sleep-cycle tracker.
func (r *Router) CSC() *stats.CSC { return r.csc }

// PortOccupancy returns the buffered flit count of input port p; the
// congestion metrics sample it every cycle.
func (r *Router) PortOccupancy(p int) int { return r.in[p].occupancy }

// MaxPortOccupancy returns the maximum buffered flit count over all input
// ports — the paper's BFM local congestion metric. O(1): the counter is
// maintained at deliver/traverse.
//
//catnap:hotpath
func (r *Router) MaxPortOccupancy() int { return r.maxPortOcc }

// TotalOccupancy returns the total buffered flits across all ports. O(1):
// the counter is maintained at deliver/traverse.
//
//catnap:hotpath
func (r *Router) TotalOccupancy() int { return r.totalOcc }

// MaxPortOccupancyScan recomputes MaxPortOccupancy by scanning the ports.
// It exists for the retained reference path and for consistency checks;
// the hot paths use the incremental counter.
//
//catnap:hotpath
func (r *Router) MaxPortOccupancyScan() int {
	m := 0
	for p := range r.in {
		if r.in[p].occupancy > m {
			m = r.in[p].occupancy
		}
	}
	return m
}

// TotalOccupancyScan recomputes TotalOccupancy by scanning the ports (see
// MaxPortOccupancyScan).
//
//catnap:hotpath
func (r *Router) TotalOccupancyScan() int {
	t := 0
	for p := range r.in {
		t += r.in[p].occupancy
	}
	return t
}

// BlockingCounters returns the cumulative eligible-but-blocked flit cycles
// and granted flits, for the Delay congestion metric.
//
//catnap:hotpath
func (r *Router) BlockingCounters() (blockedCycles, granted int64) {
	return r.blockedFlitCycles, r.grantedFlits
}

// wake initiates (or accelerates) a wake-up completing after delay cycles.
// It is a no-op on an active router; on a waking router it keeps the
// earlier completion time. cause is reported to the network's power
// tracer, if one is installed, on the actual Asleep→Waking transition.
//
//catnap:hotpath
func (r *Router) wake(now int64, delay int, cause WakeCause) {
	switch r.sub.pstate[r.node] {
	case PowerActive:
		return
	case PowerAsleep:
		r.csc.Wake(now)
		r.sub.events.GatingTransitions++
		r.sub.pstate[r.node] = PowerWaking
		r.sub.onWakeStart(r.node)
		r.wakeAt = now + int64(delay)
		if t := r.sub.net.tracer; t != nil {
			t.RouterWoke(now, r.sub.index, r.node, cause, now-r.sleptAt)
		}
	case PowerWaking:
		if t := now + int64(delay); t < r.wakeAt {
			r.wakeAt = t
		}
	}
}

// sleep gates the router at cycle now after idle continuously-empty
// cycles. The caller has verified the sleep preconditions (empty buffers,
// no pinned arrivals, policy approval).
//
//catnap:hotpath
func (r *Router) sleep(now, idle int64) {
	r.sub.pstate[r.node] = PowerAsleep
	r.sub.onSleep(r.node)
	r.checkAt = -1 // any pending check-wheel entry is now stale
	r.sleptAt = now
	r.csc.Sleep(now)
	if t := r.sub.net.tracer; t != nil {
		t.RouterSlept(now, r.sub.index, r.node, idle)
	}
}

// completeWake finishes a Waking→Active transition at cycle now. Both idle
// representations are reset (emptySince for the reference scan path,
// lastBusy for the incremental path) so a mode switch stays consistent,
// and the next sleep-eligibility check is scheduled.
//
//catnap:hotpath
func (r *Router) completeWake(now int64) {
	r.sub.pstate[r.node] = PowerActive
	r.sub.onWakeDone(r.node)
	r.emptySince = now + 1
	r.sub.lastBusy[r.node] = now
	r.sub.scheduleCheck(r, now)
}

// noteBusyEnd records that the router was busy at cycle busyCycle (the
// lazy lastBusy update) and schedules the sleep-eligibility check that
// this busy period's end makes due.
//
//catnap:hotpath
func (r *Router) noteBusyEnd(now, busyCycle int64) {
	if busyCycle > r.sub.lastBusy[r.node] {
		r.sub.lastBusy[r.node] = busyCycle
	}
	r.sub.scheduleCheck(r, now)
}

// deliver writes an arriving flit into input port p, VC v. It runs in the
// arrival phase, models the buffer-write pipeline stage, and performs the
// look-ahead wake-up: a head flit's pre-computed route identifies the
// downstream router, and if that router is gated a wake-up signal is sent
// immediately, hiding WakeupHidden cycles of the wake-up delay.
//
//catnap:hotpath
func (r *Router) deliver(now int64, p, v int, f flit) {
	cfg := r.sub.net.cfg
	f.eligibleAt = now + int64(cfg.RouterDelay)
	r.in[p].vcs[v].push(f)
	*r.occ |= 1 << uint(p*cfg.VCs+v) // no-op beyond 64 slots (slotMask off)
	occ := r.in[p].occupancy + 1
	r.in[p].occupancy = occ
	r.totalOcc++
	r.sub.bufferedFlits++
	if occ > r.maxPortOcc {
		r.sub.noteBFM(r.maxPortOcc, occ)
		r.maxPortOcc = occ
	}
	if r.totalOcc == 1 {
		r.sub.setOccupied(r.node)
	}
	r.sub.events.BufferWrites++

	if f.head() && int(f.nextPort) != r.sub.net.localPort {
		down := r.out[f.nextPort].downstream
		// The flat power-state read keeps the common all-active case from
		// loading the downstream Router struct at all.
		if down >= 0 && r.sub.pstate[down] != PowerActive {
			r.sub.routers[down].wake(now, cfg.TWakeup-cfg.WakeupHidden, WakeLookAhead)
			r.sub.events.WakeupSignals++
		}
	}
}

// reqMasks holds one router's per-output switch request masks for one
// cycle: bit p*VCs+v of [o] is set when input slot (p, v) is non-empty and
// its front packet holds a route to output o and a downstream VC. The
// router phase keeps it on its stack; routers with more than len(reqMasks)
// ports take the scan path instead.
type reqMasks [16]uint64

// vcAllocate performs virtual-channel allocation: every input VC whose
// front packet has a route but no downstream VC tries to acquire a free
// downstream VC from the class's eligible set. It also latches the
// look-ahead route of packets newly at the front of a FIFO. On the
// incremental path it fills req for switchAllocate; the scan path
// ignores req (nil is allowed there).
//
//catnap:hotpath
func (r *Router) vcAllocate(req *reqMasks) {
	nports := len(r.in)
	if r.slotMask && !r.sub.refScan {
		// Incremental path: iterate only the non-empty VCs, in the same
		// rotated-port, ascending-VC order as the scan below. vcAllocate
		// never changes slot occupancy, so the snapshot is exact. A VC
		// with a latched route is mid-packet or at an already routed
		// head, so the flit ring is read only to latch a new head.
		vcs := r.sub.net.cfg.VCs
		occ := *r.occ
		clear(req[:nports])
		for pi := 0; pi < nports; pi++ {
			p := (pi + r.vaRR) % nports
			ip := &r.in[p]
			pm := occ >> uint(p*vcs) & (1<<uint(vcs) - 1)
			for pm != 0 {
				v := bits.TrailingZeros64(pm)
				pm &= pm - 1
				vc := &ip.vcs[v]
				if !vc.routeSet {
					f := vc.front()
					if !f.head() {
						continue
					}
					vc.curPkt = f.pkt
					vc.outPort = int(f.nextPort)
					vc.outVC = -1
					vc.routeSet = true
					vc.crossed = f.crossed
				}
				if vc.outVC < 0 {
					r.allocateOutVC(vc)
					if vc.outVC < 0 {
						continue
					}
				}
				req[vc.outPort] |= 1 << uint(p*vcs+v)
			}
		}
		r.vaRR++
		return
	}
	for pi := 0; pi < nports; pi++ {
		p := (pi + r.vaRR) % nports
		ip := &r.in[p]
		for v := range ip.vcs {
			vc := &ip.vcs[v]
			if vc.empty() {
				continue
			}
			f := vc.front()
			if f.head() && !vc.routeSet {
				vc.curPkt = f.pkt
				vc.outPort = int(f.nextPort)
				vc.outVC = -1
				vc.routeSet = true
				vc.crossed = f.crossed
			}
			if !vc.routeSet || vc.outVC >= 0 {
				continue
			}
			r.allocateOutVC(vc)
		}
	}
	r.vaRR++
}

// allocateOutVC tries to grant vc's front packet a downstream virtual
// channel on its output port.
//
//catnap:hotpath
func (r *Router) allocateOutVC(vc *vcState) {
	op := &r.out[vc.outPort]
	mask := r.sub.net.cfg.vcMask(vc.curPkt.Class)
	if vc.outPort == r.sub.net.localPort {
		// Ejection: the sink is not credit-limited, but the downstream-VC
		// ownership still serializes packets per ejection channel so that
		// wormhole ordering holds at the NI.
		for v := range op.busy {
			if mask&(1<<uint(v)) == 0 || op.busy[v] {
				continue
			}
			op.busy[v] = true
			vc.outVC = int8(v)
			return
		}
		return
	}
	if op.downstream < 0 {
		panic("noc: route points off the mesh edge (routing bug)")
	}
	cfg := r.sub.net.cfg
	if cfg.Torus {
		// Dateline VC classes: the downstream buffer belongs to the ring
		// of this link; a packet that has crossed (or is about to cross,
		// if this link is the dateline) uses the upper class.
		crossed := vc.crossed&dimBit(vc.outPort) != 0 || r.sub.net.topo.WrapsPort(r.node, vc.outPort)
		mask &= cfg.datelineMask(crossed)
	}
	for v := range op.busy {
		if mask&(1<<uint(v)) == 0 || op.busy[v] {
			continue
		}
		op.busy[v] = true
		vc.outVC = int8(v)
		return
	}
}

// dimBit returns the dateline bit of a mesh direction's ring (X rings
// use bit 0, Y rings bit 1). Only torus configurations consult it, and
// the torus is always the radix-5 mesh port layout.
//
//catnap:hotpath
func dimBit(p int) uint8 {
	if p == int(topology.East) || p == int(topology.West) {
		return 1 << 0
	}
	return 1 << 1
}

// switchAllocate arbitrates the crossbar and traverses winning flits: per
// output port, one flit is granted per cycle (round-robin over input VCs),
// subject to one read per input port, downstream credit availability, and
// the downstream router being awake. It returns the number of flits moved.
// req is the request-mask set vcAllocate filled this cycle (unused, and
// may be nil, on the scan path).
//
//catnap:hotpath
func (r *Router) switchAllocate(now int64, req *reqMasks) int {
	moved := 0
	for p := range r.grantedInput {
		r.grantedInput[p] = false
	}
	if r.slotMask && !r.sub.refScan {
		return r.switchAllocateFast(now, req)
	}
	nports := len(r.in)
	local := r.sub.net.localPort
	vcs := r.sub.net.cfg.VCs
	slots := nports * vcs

	for o := 0; o < nports; o++ {
		op := &r.out[o]
		if o != local && op.downstream < 0 {
			continue
		}
		granted := false
		// Round-robin scan over all (input port, VC) slots.
		for k := 0; k < slots; k++ {
			idx := (op.rr + k) % slots
			p := idx / vcs
			v := idx % vcs
			vc := &r.in[p].vcs[v]
			if vc.empty() || !vc.routeSet || vc.outPort != o || vc.outVC < 0 {
				continue
			}
			f := vc.front()
			if f.eligibleAt > now {
				continue
			}
			if granted || r.grantedInput[p] {
				// Eligible but lost arbitration this cycle: counts toward
				// the Delay congestion metric's blocking time.
				r.blockedFlitCycles++
				continue
			}
			if o != local {
				if op.credits[vc.outVC] <= 0 {
					r.blockedFlitCycles++
					continue
				}
				if st := r.sub.pstate[op.downstream]; st != PowerActive {
					// The downstream router went to sleep after this
					// flit's delivery-time wakeup (or was never signalled
					// because it was awake then). A blocked flit keeps the
					// wakeup line asserted — without this, a flit parked
					// behind a router that sleeps later is stranded
					// forever in a quiet network.
					if st == PowerAsleep {
						cfg := r.sub.net.cfg
						r.sub.routers[op.downstream].wake(now, cfg.TWakeup-cfg.WakeupHidden, WakeLookAhead)
						r.sub.events.WakeupSignals++
					}
					r.blockedFlitCycles++
					continue
				}
			}
			r.traverse(now, p, v, vc, o, op)
			op.rr = (idx + 1) % slots
			granted = true
			moved++
		}
	}
	return moved
}

// switchAllocateFast is the incremental-path switch allocation: identical
// decisions and counters to the scan in switchAllocate — same circular
// visit order, same round-robin pointer updates, including the reference
// loop's re-read of op.rr after a grant shifts every later slot index —
// but each output walks only its request mask req[o] in word-sized jumps
// instead of loading and testing every slot. A slot outside req[o] is one
// the scan would skip with no side effect, and it cannot start requesting
// o mid-allocation: routes and downstream VCs are latched only in VA,
// while a traverse can only pop a flit or, on a tail, clear the route.
// Slots that stop requesting mid-allocation (emptied, or a tail popped)
// keep a stale bit and are filtered by the same live check the scan
// performs. grantedInput was reset by the caller.
//
//catnap:hotpath
func (r *Router) switchAllocateFast(now int64, req *reqMasks) int {
	moved := 0
	nports := len(r.in)
	local := r.sub.net.localPort
	cfg := r.sub.net.cfg
	vcs := cfg.VCs
	slots := nports * vcs

	for o := 0; o < nports; o++ {
		// Unlinked ports never hold requests: allocateOutVC rejects
		// routes off the topology edge.
		rq := req[o]
		if rq == 0 {
			continue
		}
		op := &r.out[o]
		granted := false
		base := op.rr
		for k := 0; k < slots; {
			cur := base + k
			if cur >= slots {
				cur -= slots
			}
			// Window of contiguous slot indices: up to the wrap boundary
			// and the remaining k budget.
			span := slots - k
			if l := slots - cur; l < span {
				span = l
			}
			w := rq >> uint(cur)
			if span < 64 {
				w &= 1<<uint(span) - 1
			}
			if w == 0 {
				k += span
				continue
			}
			tz := bits.TrailingZeros64(w)
			k += tz + 1
			idx := cur + tz
			p := idx / vcs
			v := idx % vcs
			vc := &r.in[p].vcs[v]
			if vc.empty() || !vc.routeSet || vc.outPort != o || vc.outVC < 0 {
				continue
			}
			f := vc.front()
			if f.eligibleAt > now {
				continue
			}
			if granted || r.grantedInput[p] {
				r.blockedFlitCycles++
				continue
			}
			if o != local {
				if op.credits[vc.outVC] <= 0 {
					r.blockedFlitCycles++
					continue
				}
				if st := r.sub.pstate[op.downstream]; st != PowerActive {
					if st == PowerAsleep {
						r.sub.routers[op.downstream].wake(now, cfg.TWakeup-cfg.WakeupHidden, WakeLookAhead)
						r.sub.events.WakeupSignals++
					}
					r.blockedFlitCycles++
					continue
				}
			}
			r.traverse(now, p, v, vc, o, op)
			op.rr = (idx + 1) % slots
			granted = true
			moved++
			base = op.rr // mirrors the scan's (op.rr + k) re-read
		}
	}
	return moved
}

// traverse moves the front flit of input (p, v) through the crossbar onto
// output port o, updating credits, wormhole state, look-ahead routing and
// the staged arrival/credit wheels.
//
//catnap:hotpath
func (r *Router) traverse(now int64, p, v int, vc *vcState, o int, op *outputPort) {
	cfg := r.sub.net.cfg
	f := vc.pop()
	if vc.empty() {
		*r.occ &^= 1 << uint(p*cfg.VCs+v)
	}
	occ := r.in[p].occupancy - 1
	r.in[p].occupancy = occ
	r.totalOcc--
	r.sub.bufferedFlits--
	if occ+1 == r.maxPortOcc {
		// The decremented port may have been the sole argmax; recompute.
		if m := r.MaxPortOccupancyScan(); m != r.maxPortOcc {
			r.sub.noteBFM(r.maxPortOcc, m)
			r.maxPortOcc = m
		}
	}
	if r.totalOcc == 0 {
		// The router was occupied at powerPhase(now-1): RouterDelay >= 1
		// means this flit was delivered no later than cycle now-1, so the
		// buffers were non-empty when the previous power phase ran.
		r.sub.clearOccupied(r.node)
		r.noteBusyEnd(now, now-1)
	}
	r.grantedInput[p] = true
	r.grantedFlits++
	ev := r.sub.events
	ev.BufferReads++
	ev.XbarTraversals++
	ev.ArbiterOps++

	outVC := int(vc.outVC)
	if f.tail() {
		// Release the downstream VC and reset per-packet state for the
		// next packet in this FIFO.
		op.busy[outVC] = false
		vc.routeSet = false
		vc.outVC = -1
		vc.curPkt = nil
	}

	// Return a credit to whoever feeds this input port (upstream router or
	// the local NI).
	if p == r.sub.net.localPort {
		r.sub.stageNICredit(now+int64(cfg.CreditDelay), r.node, v)
	} else {
		up := r.sub.feeder[r.node][p]
		r.sub.stageCredit(now+int64(cfg.CreditDelay), up.node, up.port, v)
	}

	if o == r.sub.net.localPort {
		ev.NIFlits++
		r.sub.stageEject(now+int64(cfg.LinkDelay), r.node, f)
		return
	}

	op.credits[outVC]--
	ev.LinkTraversals++
	if f.head() {
		// Look-ahead routing: compute the output port the flit must
		// request at the downstream router and carry it in the head flit.
		f.nextPort = uint8(r.sub.net.topo.LookAheadPort(op.downstream, f.pkt.Dst))
		if cfg.Torus && r.sub.net.topo.WrapsPort(r.node, o) {
			f.crossed |= dimBit(o)
		}
	}
	arriveAt := now + int64(cfg.LinkDelay)
	if arriveAt > r.sub.pinnedUntil[op.downstream] {
		r.sub.pinnedUntil[op.downstream] = arriveAt
	}
	r.sub.stageArrival(arriveAt, op.downstream, op.downInPort, outVC, f)
}

// powerUpdate runs at the end of each cycle on the reference scan path:
// it advances wake-ups, resets or extends the idle streak, and consults
// the gating policy for sleep and proactive-wake decisions. It also
// accrues state-residency counts for the power model. The incremental
// path (Subnet.powerPhase) reproduces these decisions bit-identically
// without visiting steady-state routers.
//
//catnap:hotpath
func (r *Router) powerUpdate(now int64) {
	cfg := r.sub.net.cfg
	pol := r.sub.net.gating
	ev := r.sub.events

	switch r.sub.pstate[r.node] {
	case PowerWaking:
		ev.ActiveRouterCycles++ // rail charging draws power
		if now >= r.wakeAt {
			r.completeWake(now)
		}
		return
	case PowerAsleep:
		ev.SleepRouterCycles++
		if pol != nil && pol.WantWake(now, r.sub.index, r.node) {
			r.wake(now, cfg.TWakeup, WakePolicy)
		}
		return
	}

	ev.ActiveRouterCycles++
	if r.TotalOccupancyScan() > 0 || r.sub.pinnedUntil[r.node] > now || r.sub.net.niStreaming(r.sub.index, r.node) {
		r.emptySince = now + 1
		return
	}
	if pol == nil {
		return
	}
	idle := now - r.emptySince + 1
	if idle >= int64(cfg.TIdleDetect) && pol.AllowSleep(now, r.sub.index, r.node, idle) {
		r.sleep(now, idle)
	}
}

// powerCheck is the incremental path's equivalent of powerUpdate's
// active-state branch, run only when a scheduled check fires or a blocked
// router is re-evaluated after a policy-epoch change. blocked reports
// whether the router currently sits in the subnet's blocked set (idle long
// enough, but the policy denied sleep).
//
// Busy routers simply return: the event that ends the busy condition
// (occupancy reaching zero, the NI stream finishing, a pinned arrival
// being delivered) updates lastBusy and schedules a fresh check, so no
// decision is ever missed. idle below TIdleDetect at a live check can only
// happen after defensive rescheduling; it, too, leaves the next check in
// place.
//
//catnap:hotpath
func (r *Router) powerCheck(now int64, blocked bool) {
	if r.totalOcc > 0 || r.sub.pinnedUntil[r.node] > now || r.sub.net.niStreaming(r.sub.index, r.node) {
		if blocked {
			r.sub.clearBlocked(r.node)
		}
		return
	}
	pol := r.sub.net.gating
	if pol == nil {
		return // SetGatingPolicy re-arms checks when a policy appears
	}
	idle := now - r.sub.lastBusy[r.node]
	if idle < int64(r.sub.net.cfg.TIdleDetect) {
		if blocked {
			r.sub.clearBlocked(r.node)
		}
		r.sub.scheduleCheck(r, now)
		return
	}
	if pol.AllowSleep(now, r.sub.index, r.node, idle) {
		r.sleep(now, idle)
		return
	}
	if !blocked {
		r.sub.setBlocked(r.node)
	}
}
