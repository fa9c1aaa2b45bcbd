package noc

import (
	"math/bits"

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
	outPort int
	outVC   int8
	// allowed is the set of downstream VCs the packet may take (bit v =
	// VC v), latched with the route: its class's VC set, narrowed on a
	// torus to the dateline class of its output link. Both are fixed once
	// the route is, so a head waiting for a VC reloads neither its packet
	// nor the config. Every valid Config gives every packet at least one
	// VC, so allowed != 0 exactly while a route is latched.
	allowed uint32
}

func (v *vcState) empty() bool { return v.count == 0 }

func (v *vcState) front() *flit { return &v.q[v.head] }

func (v *vcState) push(f flit) {
	if v.count == len(v.q) {
		panic("noc: VC buffer overflow (credit accounting bug)")
	}
	i := v.head + v.count
	if i >= len(v.q) {
		i -= len(v.q)
	}
	v.q[i] = f
	v.count++
}

func (v *vcState) pop() flit {
	f := v.q[v.head]
	// Zero the whole slot, not just the packet pointer: dequeued packets
	// must not be retained, and keeping drained slots pristine lets a
	// same-shape reset sweep only the live ring spans instead of
	// bulk-clearing the subnet's entire flit pool.
	v.q[v.head] = flit{}
	if v.head++; v.head == len(v.q) {
		v.head = 0
	}
	v.count--
	return f
}

// inputPort is one of a router's input ports. Its VCs live in the
// router's slot-indexed Router.vcs.
type inputPort struct {
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
	// busy bit v marks downstream VC v as allocated to an in-flight packet
	// (wormhole: held from head allocation to tail traversal).
	busy uint32
	// rr is the round-robin pointer for switch allocation fairness.
	rr int
}

// maskPorts is the most ports a router may have and still allocate
// through its per-output request masks (Router.req).
const maskPorts = 16

// Router is one input-buffered virtual-channel router in one subnet,
// implementing a two-stage speculative pipeline with look-ahead routing.
type Router struct {
	sub  *Subnet
	node int

	// in/out are subslices of the subnet's contiguous backing pools
	// (inPool/outPool): one allocation per subnet per kind, with
	// neighbouring routers on adjacent cache lines. See the
	// struct-of-arrays layout notes on Subnet.
	in  []inputPort
	out []outputPort
	// vcs holds every input VC, indexed by slot p*VCs+v (the bit order of
	// the slot masks below): a subslice of the subnet's vcPool.
	vcs []vcState

	// Power gating state. The state itself lives in Subnet.pstate (flat,
	// indexed by node) so phase loops and downstream-awake checks never
	// load a Router struct for it; read it via State() or sub.pstate.
	wakeAt int64
	// sleptAt is the cycle the current/last sleep period began: the wake
	// closes the period's compensated sleep cycles into Subnet.cscClosed,
	// a read counts an open one up to Now(), and telemetry reports the
	// period length on wake.
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

	// Incrementally maintained occupancy aggregates: totalOcc mirrors
	// the sum of in[p].occupancy and maxPortOcc its maximum, updated at
	// deliver/traverse so the per-cycle hot paths never rescan ports.
	totalOcc   int
	maxPortOcc int
	// occ points at this router's word in Subnet.occSlots: the non-empty
	// (input port, VC) slot bitmask, bit p*VCs+v. Maintained at deliver
	// (push) and traverse (pop). Usable only when every slot fits in the
	// word (slotMask) and every output has a request mask (radix <=
	// maskPorts); other shapes fall back to the full scan.
	occ      *uint64
	slotMask bool
	// Persistent allocation masks over the same slot bits, maintained on
	// both paths whenever slotMask holds and read by the incremental one:
	// ready marks slots whose front packet holds a route and a downstream
	// VC, req[o] the part of ready routed to output o (both set when
	// allocateOutVC succeeds, cleared when the slot's tail traverses), and
	// elig the non-empty slots whose front flit has left the router
	// pipeline (eligibleAt <= now). A flit that reaches the front before
	// its eligibleAt is staged on Subnet.eligWheel, which sets its bit at
	// the top of the router phase of that cycle; a pop clears the bit.
	ready uint64
	elig  uint64
	req   [maskPorts]uint64

	// Congestion-metric instrumentation (cumulative; readers take deltas).
	blockedFlitCycles int64 // eligible-but-ungranted flit cycles
	grantedFlits      int64 // flits that won switch allocation

	// vaRR is the port VC allocation starts from, in [0, radix).
	vaRR int
}

// wire builds the router's shape-pure state: the slice views carved out
// of the subnet's contiguous pools (allocated once per shape in
// Subnet.reset) and the link-derived port constants. Everything wire
// writes is a pure function of the subnet's wireShape, so Subnet.reset
// re-runs it only when the shape changes; rearm handles the run-state
// values on every reset. wire serves fresh construction and shape-changing
// reset alike: the caller hands it a zeroed Router over freshly zeroed
// pools.
func (r *Router) wire(sub *Subnet, node int) {
	cfg := sub.net.cfg
	topo := sub.net.topo
	radix := sub.radix
	r.sub = sub
	r.node = node
	pb := node * radix
	r.in = sub.inPool[pb : pb+radix : pb+radix]
	r.out = sub.outPool[pb : pb+radix : pb+radix]
	r.occ = &sub.occSlots[node]
	r.slotMask = radix*cfg.VCs <= 64 && radix <= maskPorts
	sb := pb * cfg.VCs // the router's first slot in the per-slot pools
	r.vcs = sub.vcPool[sb : sb+radix*cfg.VCs : sb+radix*cfg.VCs]
	for i := range r.vcs {
		qb := (sb + i) * cfg.VCDepth
		r.vcs[i].q = sub.flitPool[qb : qb+cfg.VCDepth : qb+cfg.VCDepth]
	}
	local := radix - 1
	for p := 0; p < radix; p++ {
		vb := (pb + p) * cfg.VCs
		op := &r.out[p]
		op.downstream = -1
		if p != local {
			if peer, peerPort, ok := topo.Link(node, p); ok {
				op.downstream = peer
				op.downInPort = peerPort
				op.credits = sub.outCredits[vb : vb+cfg.VCs : vb+cfg.VCs]
			}
		}
	}
}

// rearm rewinds the router's run state to cycle 0 through the existing
// views: per-port occupancy, round-robin cursors and downstream VC
// ownership, downstream credit values, and the incremental counters. It
// runs on every reset — after wire on a shape change, alone when the
// shape is unchanged — and is the single place cycle-0 router values are
// defined. The flit rings and VC states it does not touch are swept by
// Subnet.reset directly through the backing pools.
func (r *Router) rearm(cfg *Config) {
	for p := range r.in {
		r.in[p].occupancy = 0
	}
	for p := range r.out {
		op := &r.out[p]
		op.rr = 0
		op.busy = 0
		for v := range op.credits {
			op.credits[v] = int32(cfg.VCDepth)
		}
	}
	r.wakeAt = 0
	r.sleptAt = 0
	r.totalOcc = 0
	r.maxPortOcc = 0
	r.ready = 0
	r.elig = 0
	clear(r.req[:])
	r.blockedFlitCycles = 0
	r.grantedFlits = 0
	r.vaRR = 0
	r.emptySince = 0
	r.checkAt = -1
}

// State returns the router's power state.
func (r *Router) State() PowerState { return r.sub.pstate[r.node] }

// MaxPortOccupancy returns the maximum buffered flit count over all input
// ports — the paper's BFM local congestion metric. O(1): the counter is
// maintained at deliver/traverse.
func (r *Router) MaxPortOccupancy() int { return r.maxPortOcc }

// TotalOccupancy returns the total buffered flits across all ports. O(1):
// the counter is maintained at deliver/traverse.
func (r *Router) TotalOccupancy() int { return r.totalOcc }

// MaxPortOccupancyScan recomputes MaxPortOccupancy by scanning the ports.
// It exists for the retained reference path and for consistency checks;
// the hot paths use the incremental counter.
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
func (r *Router) TotalOccupancyScan() int {
	t := 0
	for p := range r.in {
		t += r.in[p].occupancy
	}
	return t
}

// allocMasksScan rebuilds the ready, req and elig masks from the VC
// states, with elig as the router phase of cycle now sees it. The
// aggregate cross-checks and the switch-allocation differential compare
// the persistent masks against it.
func (r *Router) allocMasksScan(now int64) (ready uint64, req [maskPorts]uint64, elig uint64) {
	vcs := r.sub.net.cfg.VCs
	for p := range r.in {
		for v := 0; v < vcs; v++ {
			vc := &r.vcs[p*vcs+v]
			bit := uint64(1) << uint(p*vcs+v)
			if vc.allowed != 0 && vc.outVC >= 0 {
				ready |= bit
				req[vc.outPort] |= bit
			}
			if !vc.empty() && vc.front().eligibleAt <= now {
				elig |= bit
			}
		}
	}
	return ready, req, elig
}

// busyScan rebuilds output o's downstream-VC ownership mask from the VC
// states: bit v for each slot that holds a route through o and downstream
// VC v. dup reports a downstream VC that two slots hold.
func (r *Router) busyScan(o int) (busy uint32, dup bool) {
	for i := range r.vcs {
		vc := &r.vcs[i]
		if vc.allowed != 0 && vc.outPort == o && vc.outVC >= 0 {
			bit := uint32(1) << uint(vc.outVC)
			dup = dup || busy&bit != 0
			busy |= bit
		}
	}
	return busy, dup
}

// BlockingCounters returns the cumulative eligible-but-blocked flit cycles
// and granted flits, for the Delay congestion metric.
func (r *Router) BlockingCounters() (blockedCycles, granted int64) {
	return r.blockedFlitCycles, r.grantedFlits
}

// wake initiates (or accelerates) a wake-up completing after delay cycles.
// It is a no-op on an active router; on a waking router it keeps the
// earlier completion time. cause is reported to the network's power
// tracer, if one is installed, on the actual Asleep→Waking transition.
func (r *Router) wake(now int64, delay int, cause WakeCause) {
	switch r.sub.pstate[r.node] {
	case PowerActive:
		return
	case PowerAsleep:
		r.sub.cscClosed += r.compensated(now) // the sleep period closes
		r.sub.net.events.GatingTransitions++
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

// compensated returns the compensated sleep cycles of the sleep period
// that began at sleptAt, as of cycle now: a period of L cycles saved
// leakage only beyond the break-even time, so it counts
// max(0, L − TBreakeven) (Hu et al.).
func (r *Router) compensated(now int64) int64 {
	return max(0, now-r.sleptAt-int64(r.sub.net.cfg.TBreakeven))
}

// sleep gates the router at cycle now after idle continuously-empty
// cycles. The caller has verified the sleep preconditions (empty buffers,
// no pinned arrivals, policy approval).
func (r *Router) sleep(now, idle int64) {
	r.sub.pstate[r.node] = PowerAsleep
	r.sub.onSleep(r.node)
	r.checkAt = -1 // any pending check-wheel entry is now stale
	r.sleptAt = now
	if t := r.sub.net.tracer; t != nil {
		t.RouterSlept(now, r.sub.index, r.node, idle)
	}
}

// completeWake finishes a Waking→Active transition at cycle now. Both idle
// representations are reset (emptySince for the reference scan path,
// lastBusy for the incremental path), and the next sleep-eligibility
// check is scheduled.
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
func (r *Router) deliver(now int64, p, v int, f flit) {
	cfg := r.sub.net.cfg
	f.eligibleAt = now + int64(cfg.RouterDelay)
	slot := uint(p*cfg.VCs + v)
	vc := &r.vcs[slot]
	vc.push(f)
	*r.occ |= 1 << slot // no-op beyond 64 slots (slotMask off)
	if vc.count == 1 && r.slotMask {
		// A new front flit; RouterDelay >= 1, so it is not eligible yet.
		r.sub.stageElig(f.eligibleAt, r.node, slot)
	}
	occ := r.in[p].occupancy + 1
	r.in[p].occupancy = occ
	r.totalOcc++
	if occ > r.maxPortOcc {
		r.maxPortOcc = occ
	}
	if r.totalOcc == 1 {
		r.sub.setOccupied(r.node)
	}
	r.sub.net.events.BufferWrites++

	if f.head() && int(f.nextPort) != r.sub.net.localPort {
		down := r.out[f.nextPort].downstream
		// The flat power-state read keeps the common all-active case from
		// loading the downstream Router struct at all.
		if down >= 0 && r.sub.pstate[down] != PowerActive {
			r.sub.routers[down].wake(now, cfg.TWakeup-cfg.WakeupHidden, WakeLookAhead)
			r.sub.net.events.WakeupSignals++
		}
	}
}

// vcAllocate performs virtual-channel allocation: every input VC whose
// front packet has a route but no downstream VC tries to acquire a free
// downstream VC from the class's eligible set. It also latches the
// look-ahead route of packets newly at the front of a FIFO.
func (r *Router) vcAllocate() {
	nports := len(r.in)
	vcs := r.sub.net.cfg.VCs
	if r.slotMask && !r.sub.refScan {
		// Incremental path: visit only the occupied slots outside ready, in
		// the same rotated-port, ascending-VC order as the scan below. A
		// ready slot's packet already holds its route and downstream VC, so
		// the scan passes over it untouched; vcAllocate never changes slot
		// occupancy, so the snapshot is exact.
		if todo := *r.occ &^ r.ready; todo != 0 {
			p := r.vaRR
			for pi := 0; pi < nports; pi++ {
				pm := todo >> uint(p*vcs) & (1<<uint(vcs) - 1)
				for pm != 0 {
					v := bits.TrailingZeros64(pm)
					pm &= pm - 1
					vc := &r.vcs[p*vcs+v]
					if vc.allowed == 0 {
						f := vc.front()
						if !f.head() {
							continue
						}
						r.latchRoute(vc, f)
					}
					r.allocateOutVC(vc, p*vcs+v)
				}
				if p++; p == nports {
					p = 0
				}
			}
		}
		r.advanceVARR(nports)
		return
	}
	for pi := 0; pi < nports; pi++ {
		p := (pi + r.vaRR) % nports
		for v := 0; v < vcs; v++ {
			vc := &r.vcs[p*vcs+v]
			if vc.empty() {
				continue
			}
			f := vc.front()
			if f.head() && vc.allowed == 0 {
				r.latchRoute(vc, f)
			}
			if vc.allowed == 0 || vc.outVC >= 0 {
				continue
			}
			r.allocateOutVC(vc, p*vcs+v)
		}
	}
	r.advanceVARR(nports)
}

// advanceVARR moves VC allocation's starting port on by one, wrapping at
// nports. The scan reads vaRR only mod nports, so wrapping leaves its
// visit order unchanged.
func (r *Router) advanceVARR(nports int) {
	if r.vaRR++; r.vaRR == nports {
		r.vaRR = 0
	}
}

// latchRoute latches the look-ahead route of f, the head flit now at the
// front of vc, together with the downstream VCs its packet may take.
func (r *Router) latchRoute(vc *vcState, f *flit) {
	cfg := r.sub.net.cfg
	o := int(f.nextPort)
	allowed := cfg.vcMask(f.pkt.Class)
	// Ejection (the local port) skips the checks below: the sink is not
	// credit-limited, but the downstream-VC ownership still serializes
	// packets per ejection channel so that wormhole ordering holds at the
	// NI.
	if o != r.sub.net.localPort {
		if r.out[o].downstream < 0 {
			panic("noc: route points off the mesh edge (routing bug)")
		}
		if cfg.Torus {
			// Dateline VC classes: the downstream buffer belongs to the
			// ring of this link; a packet that has crossed (or is about to
			// cross, if this link is the dateline) uses the upper class.
			crossed := f.crossed&dimBit(o) != 0 || r.sub.net.topo.WrapsPort(r.node, o)
			allowed &= cfg.datelineMask(crossed)
		}
	}
	vc.outPort = o
	vc.outVC = -1
	vc.allowed = allowed
}

// allocateOutVC tries to grant vc's front packet, at slot p*VCs+v, the
// lowest free downstream VC of its allowed set on its output port; on
// success the slot joins ready and req[outPort].
func (r *Router) allocateOutVC(vc *vcState, slot int) {
	op := &r.out[vc.outPort]
	free := vc.allowed &^ op.busy
	if free == 0 {
		return
	}
	v := bits.TrailingZeros32(free)
	op.busy |= 1 << uint(v)
	vc.outVC = int8(v)
	if r.slotMask {
		r.ready |= 1 << uint(slot)
		r.req[vc.outPort] |= 1 << uint(slot)
	}
}

// dimBit returns the dateline bit of a mesh direction's ring (X rings
// use bit 0, Y rings bit 1). Only torus configurations consult it, and
// the torus is always the radix-5 mesh port layout.
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
func (r *Router) switchAllocate(now int64) int {
	if r.slotMask && !r.sub.refScan {
		return r.switchAllocateFast(now)
	}
	moved := 0
	grantedInput := r.sub.grantScratch
	clear(grantedInput)
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
			vc := &r.vcs[idx]
			if vc.empty() || vc.allowed == 0 || vc.outPort != o || vc.outVC < 0 {
				continue
			}
			f := vc.front()
			if f.eligibleAt > now {
				continue
			}
			if granted || grantedInput[p] {
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
						r.sub.net.events.WakeupSignals++
					}
					r.blockedFlitCycles++
					continue
				}
			}
			r.traverse(now, p, v, vc, o, op)
			grantedInput[p] = true
			op.rr = (idx + 1) % slots
			granted = true
			moved++
		}
	}
	return moved
}

// switchAllocateFast is the incremental-path switch allocation: identical
// decisions and counters to the scan in switchAllocate, but each output
// walks only req[o] & elig — exactly the slots the scan's filter passes —
// rotated so that bit j is the slot j positions past op.rr. Outputs cannot
// disturb each other's candidates: a traverse pops a slot routed to its
// own output, and routes and downstream VCs are latched only in VA. Up to
// the grant, the walk visits the scan's candidates in the scan's order,
// with the same taken-input, credit and downstream-awake checks and the
// same single wake-up; the scan's grantedInput is the local mask granted.
//
// After a grant the scan only counts: each slot it still visits that
// passes its filter is one blocked flit-cycle. With the winner K-1
// positions past the origin, the scan re-reads op.rr (now origin+K), so
// its remaining slots-K visits start 2K past the origin and end at the
// winner. The count is therefore a popcount of the post-grant candidates
// over that window, the winner included after its pop.
func (r *Router) switchAllocateFast(now int64) int {
	moved := 0
	nports := len(r.in)
	local := r.sub.net.localPort
	cfg := r.sub.net.cfg
	slots := nports * cfg.VCs
	slotPort := &r.sub.slotPort
	var granted uint32 // input ports that sent a flit this cycle

	for o := 0; o < nports; o++ {
		// Unlinked ports never hold requests: allocateOutVC rejects
		// routes off the topology edge.
		cand := r.req[o] & r.elig
		if cand == 0 {
			continue
		}
		op := &r.out[o]
		origin := op.rr
		for c := rotr(cand, origin, slots); c != 0; c &= c - 1 {
			j := bits.TrailingZeros64(c)
			idx := origin + j
			if idx >= slots {
				idx -= slots
			}
			p := int(slotPort[idx])
			if granted&(1<<uint(p)) != 0 {
				r.blockedFlitCycles++
				continue
			}
			v := idx - p*cfg.VCs
			vc := &r.vcs[idx]
			if o != local {
				if op.credits[vc.outVC] <= 0 {
					r.blockedFlitCycles++
					continue
				}
				if st := r.sub.pstate[op.downstream]; st != PowerActive {
					if st == PowerAsleep {
						r.sub.routers[op.downstream].wake(now, cfg.TWakeup-cfg.WakeupHidden, WakeLookAhead)
						r.sub.net.events.WakeupSignals++
					}
					r.blockedFlitCycles++
					continue
				}
			}
			r.traverse(now, p, v, vc, o, op)
			granted |= 1 << uint(p)
			moved++
			k := j + 1
			op.rr = idx + 1
			if op.rr == slots {
				op.rr = 0
			}
			start := op.rr + k
			if start >= slots {
				start -= slots
			}
			rest := rotr(r.req[o]&r.elig, start, slots) & (1<<uint(slots-k) - 1)
			r.blockedFlitCycles += int64(bits.OnesCount64(rest))
			break
		}
	}
	return moved
}

// rotr rotates the low n bits of m (n <= 64, s < n) right by s, so that
// bit s lands on bit 0.
func rotr(m uint64, s, n int) uint64 {
	m = m>>uint(s) | m<<uint(n-s) // a shift by 64 yields 0
	if n < 64 {
		m &= 1<<uint(n) - 1
	}
	return m
}

// traverse moves the front flit of input (p, v) through the crossbar onto
// output port o, updating credits, wormhole state, the allocation masks,
// look-ahead routing and the staged arrival/credit wheels.
func (r *Router) traverse(now int64, p, v int, vc *vcState, o int, op *outputPort) {
	cfg := r.sub.net.cfg
	f := vc.pop()
	slot := uint(p*cfg.VCs + v)
	if vc.empty() {
		*r.occ &^= 1 << slot
	}
	if r.slotMask {
		r.elig &^= 1 << slot
		if !vc.empty() {
			// The next flit is now the front: eligible at once if its
			// pipeline delay has passed, else staged for that cycle.
			if at := vc.front().eligibleAt; at <= now {
				r.elig |= 1 << slot
			} else {
				r.sub.stageElig(at, r.node, slot)
			}
		}
		if f.tail() {
			r.ready &^= 1 << slot
			r.req[o] &^= 1 << slot
		}
	}
	occ := r.in[p].occupancy - 1
	r.in[p].occupancy = occ
	r.totalOcc--
	if occ+1 == r.maxPortOcc {
		// The decremented port may have been the sole argmax; recompute.
		r.maxPortOcc = r.MaxPortOccupancyScan()
	}
	if r.totalOcc == 0 {
		// The router was occupied at powerPhase(now-1): RouterDelay >= 1
		// means this flit was delivered no later than cycle now-1, so the
		// buffers were non-empty when the previous power phase ran.
		r.sub.clearOccupied(r.node)
		r.noteBusyEnd(now, now-1)
	}
	r.grantedFlits++
	ev := &r.sub.net.events
	ev.XbarTraversals++

	outVC := int(vc.outVC)
	if f.tail() {
		// Release the downstream VC and reset per-packet state for the
		// next packet in this FIFO.
		op.busy &^= 1 << uint(outVC)
		vc.outVC = -1
		vc.allowed = 0
	}

	// Return a credit to whoever feeds this input port (upstream router or
	// the local NI).
	if p == r.sub.net.localPort {
		r.sub.stageNICredit(now+int64(cfg.CreditDelay), r.node, v)
	} else {
		up := r.sub.feeder[r.node*r.sub.radix+p]
		r.sub.stageCredit(now+int64(cfg.CreditDelay), int(up.node), int(up.port), v)
	}

	if o == r.sub.net.localPort {
		ev.NIFlits++
		r.sub.stageEject(now+int64(cfg.LinkDelay), r.node, f)
		return
	}

	op.credits[outVC]--
	ev.LinkTraversals++
	if f.head() {
		// Look-ahead routing (Galles' SGI Spider scheme, used by the
		// paper's two-stage router): compute the output port the flit
		// must request at the downstream router and carry it in the head
		// flit, which takes route computation off the critical path and
		// tells this router which downstream router to wake.
		f.nextPort = uint16(r.sub.net.topo.RoutePort(op.downstream, f.pkt.Dst))
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
func (r *Router) powerUpdate(now int64) {
	cfg := r.sub.net.cfg
	pol := r.sub.net.gating
	ev := &r.sub.net.events

	switch r.sub.pstate[r.node] {
	case PowerWaking:
		ev.ActiveRouterCycles++ // rail charging draws power
		if now >= r.wakeAt {
			r.completeWake(now)
		}
		return
	case PowerAsleep:
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
