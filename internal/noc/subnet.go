package noc

import (
	"math/bits"

	"github.com/catnap-noc/catnap/internal/topology"
)

// arrival is a flit staged on a link, due to be written into a router's
// input buffer at a specific cycle.
type arrival struct {
	node int
	port int
	vc   int
	f    flit
}

// credit is a staged credit return to a router's output port.
type credit struct {
	node int
	port int
	vc   int
}

// feederLink identifies the upstream router output that feeds one of a
// router's input ports (credit returns flow back along it).
type feederLink struct {
	node int
	port int
}

// niCredit is a staged credit return to a node's NI for one of the local
// input port's VCs.
type niCredit struct {
	node int
	vc   int
}

// ejection is a flit staged for delivery into the destination NI.
type ejection struct {
	node int
	f    flit
}

// Subnet is one physical subnetwork: a full mesh of routers plus the
// staged-event wheels that model link, credit, and ejection latencies.
type Subnet struct {
	net    *Network
	index  int
	events *PowerEvents

	routers []Router

	// feeder[node][inPort] is the upstream (router, output port) feeding
	// that input port; input ports with no feeder (local, edges) hold
	// node == -1. Points into the shared immutable precompute for the
	// network's topology shape (precompute.go): identical for every
	// subnet and every same-shape network, read-only after construction.
	feeder [][]feederLink

	// Staged-event wheels, indexed by cycle % wheelSize. All delays are
	// small constants, so a fixed ring suffices.
	wheelSize int
	arrivals  [][]arrival
	credits   [][]credit
	niCredits [][]niCredit
	ejections [][]ejection

	// O(active) work-list state (see DESIGN.md "Hot path"). Everything
	// below is written only from this subnet's deliver/router/power
	// phases.
	//
	// refScan selects the retained O(nodes)-scan reference phases; the
	// aggregates are maintained in both modes so observers read the same
	// values either way.
	refScan bool
	// Bitmaps over node ids (bit n of word n/64).
	occBits     []uint64 // routers with buffered flits
	wakingBits  []uint64 // routers in PowerWaking
	asleepBits  []uint64 // routers in PowerAsleep
	blockedBits []uint64 // idle-eligible routers the policy denied sleep
	pollBits    []uint64 // newly-slept routers owed one WantWake poll
	dueBits     []uint64 // scratch: checks firing this cycle
	workBits    []uint64 // scratch: merged power-phase work set
	// stateCount[s] is the router count in PowerState s.
	stateCount [3]int
	// bufferedFlits is the subnet-wide buffered flit total (BFA metric,
	// telemetry occupancy series).
	bufferedFlits int
	// bfmHist[v] counts routers whose max port occupancy is exactly v;
	// bfmMax is a lazily-tightened upper bound on the subnet MaxBFM.
	bfmHist []int32
	bfmMax  int
	// checkWheel[c % len] holds nodes whose sleep-eligibility check is
	// scheduled for cycle c; stale entries (router rescheduled or slept)
	// are skipped via Router.checkAt. Sized TIdleDetect+2: no check is
	// ever scheduled more than TIdleDetect+1 cycles ahead.
	checkWheel [][]int32
	// lastEpoch is the gating-policy epoch observed at the previous power
	// phase; a change triggers re-evaluation of asleep/blocked routers.
	lastEpoch uint64

	// Struct-of-arrays hot state (see DESIGN.md "Hot path"): the
	// per-router fields the VA/SA/ST and power passes touch every cycle
	// live in flat per-subnet slices indexed by node id, so phase loops
	// scan adjacent cache lines instead of pointer-chasing through
	// ~500-byte Router structs. Routers hold views into these arrays
	// (Router.occ, outputPort.credits).
	radix int
	// pstate[n] is router n's power state (zero value == PowerActive).
	pstate []PowerState
	// occSlots[n] is router n's non-empty (port,VC) slot bitmask.
	occSlots []uint64
	// lastBusy[n] is the lazy last-busy cycle (incremental idle
	// accounting); pinnedUntil[n] the latest in-flight arrival cycle.
	lastBusy    []int64
	pinnedUntil []int64
	// outCredits is the flattened downstream-credit array, entry
	// (n*radix+p)*VCs+v; linked output ports subslice it and the deliver
	// phase drains credit returns into it without loading any router.
	outCredits []int32
	// Contiguous backing pools for every router's port, VC, flit-ring,
	// VC-busy, and grant-scratch storage: one allocation per kind per
	// subnet instead of O(nodes*radix) little ones.
	inPool    []inputPort
	outPool   []outputPort
	vcPool    []vcState
	flitPool  []flit
	busyPool  []bool
	grantPool []bool

	// wired is the shape the pools and router views above were last built
	// for. Subnet.reset rebuilds the wiring (pool sizes, slice views,
	// link-derived port constants) only when this changes; a same-shape
	// reset sweeps just the run-state values through the existing views.
	// The topo field compares by identity, which the shared precompute
	// cache makes canonical per shape.
	wired wireShape
}

// wireShape keys the shape-pure wiring of a subnet: everything Router.wire
// derives is a pure function of these inputs.
type wireShape struct {
	nodes, radix, vcs, vcdepth int
	topo                       topology.Topology
}

// Subnets are built (and rebuilt) exclusively by Subnet.reset in
// reset.go, which Network.Reset drives for fresh shells and reused
// instances alike; there is deliberately no separate constructor whose
// initialization could drift from the reset path.

// Router returns the router at node n (read-mostly access for congestion
// metrics, policies, and tests).
//
//catnap:hotpath
func (s *Subnet) Router(n int) *Router { return &s.routers[n] }

// Events returns the subnet's switching-activity counters.
func (s *Subnet) Events() *PowerEvents { return s.events }

//catnap:hotpath
func (s *Subnet) slot(cycle int64) int { return int(cycle % int64(s.wheelSize)) }

//catnap:hotpath wheel append, amortised zero-alloc once warmed
func (s *Subnet) stageArrival(at int64, node, port, vc int, f flit) {
	i := s.slot(at)
	s.arrivals[i] = append(s.arrivals[i], arrival{node: node, port: port, vc: vc, f: f})
}

//catnap:hotpath
func (s *Subnet) stageCredit(at int64, node, port, vc int) {
	i := s.slot(at)
	s.credits[i] = append(s.credits[i], credit{node: node, port: port, vc: vc})
}

//catnap:hotpath
func (s *Subnet) stageNICredit(at int64, node, vc int) {
	i := s.slot(at)
	s.niCredits[i] = append(s.niCredits[i], niCredit{node: node, vc: vc})
}

//catnap:hotpath
func (s *Subnet) stageEject(at int64, node int, f flit) {
	i := s.slot(at)
	s.ejections[i] = append(s.ejections[i], ejection{node: node, f: f})
}

// deliverPhase drains every event staged for cycle now: credits first (so
// freed slots are usable this cycle), then flit arrivals, then ejections
// into the NIs.
//
//catnap:hotpath
func (s *Subnet) deliverPhase(now int64) {
	i := s.slot(now)

	// Credit returns drain straight into the flat credit array: no Router
	// struct, port slice, or subslice header is touched.
	vcs := s.net.cfg.VCs
	for _, c := range s.credits[i] {
		s.outCredits[(c.node*s.radix+c.port)*vcs+c.vc]++
	}
	s.credits[i] = s.credits[i][:0]

	for _, c := range s.niCredits[i] {
		s.net.nis[c.node].creditReturn(s.index, c.vc)
	}
	s.niCredits[i] = s.niCredits[i][:0]

	for _, a := range s.arrivals[i] {
		s.routers[a.node].deliver(now, a.port, a.vc, a.f)
	}
	s.arrivals[i] = s.arrivals[i][:0]

	for _, e := range s.ejections[i] {
		s.net.eject(now, e.node, e.f)
	}
	s.ejections[i] = s.ejections[i][:0]
}

// routerPhase runs allocation and traversal on every active router.
//
//catnap:hotpath
func (s *Subnet) routerPhase(now int64) {
	if s.refScan {
		s.routerPhaseScan(now)
		return
	}
	// Iterate the occupied-router work list in ascending node order (the
	// same order the scan visits). Word snapshots are safe: traversal can
	// only clear a router's own bit, never set one, so no occupied router
	// is skipped and none is visited twice. req carries each router's
	// switch requests from VA to SA; it is rebuilt per router.
	var req reqMasks
	for i, w := range s.occBits {
		for w != 0 {
			n := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if s.pstate[n] != PowerActive {
				continue
			}
			r := &s.routers[n]
			r.vcAllocate(&req)
			r.switchAllocate(now, &req)
		}
	}
}

// routerPhaseScan is the retained reference implementation: visit every
// router, skipping gated and empty ones by rescanning their ports.
//
//catnap:hotpath
func (s *Subnet) routerPhaseScan(now int64) {
	for n := range s.routers {
		if s.pstate[n] != PowerActive {
			continue
		}
		r := &s.routers[n]
		if r.TotalOccupancyScan() == 0 {
			continue
		}
		r.vcAllocate(nil)
		r.switchAllocate(now, nil)
	}
}

// powerPhase advances power states. The incremental path touches only
// routers with due work — waking routers, scheduled sleep checks, and
// (when the gating policy's decision epoch moved) asleep or sleep-blocked
// routers — while accruing state residency from the per-state counts in
// O(1). Event order matches the reference scan: ascending node id.
//
//catnap:hotpath
func (s *Subnet) powerPhase(now int64) {
	if s.refScan {
		s.powerPhaseScan(now)
		return
	}
	ev := s.events
	ev.ActiveRouterCycles += int64(s.stateCount[PowerActive] + s.stateCount[PowerWaking])
	ev.SleepRouterCycles += int64(s.stateCount[PowerAsleep])

	pol := s.net.gating
	evalAll := false
	if pol != nil {
		if fn := s.net.epochFn; fn != nil {
			ep := fn()
			evalAll = ep != s.lastEpoch
			s.lastEpoch = ep
		} else {
			// Non-epoched policies are polled every cycle, as the
			// reference path does.
			evalAll = true
		}
	}

	// Drain this cycle's check slot. Checks are scheduled at most
	// TIdleDetect+1 cycles ahead (< len(checkWheel)), so entries staged
	// during this phase always land in a different slot.
	due := s.dueBits
	for i := range due {
		due[i] = 0
	}
	slot := s.slotCheck(now)
	for _, n := range s.checkWheel[slot] {
		if r := &s.routers[n]; r.checkAt == now {
			r.checkAt = -1
			due[n>>6] |= 1 << (uint(n) & 63)
		}
	}
	s.checkWheel[slot] = s.checkWheel[slot][:0]

	work := s.workBits
	for i := range work {
		w := s.wakingBits[i] | due[i]
		if evalAll {
			w |= s.asleepBits[i] | s.blockedBits[i]
		} else {
			w |= s.pollBits[i]
		}
		work[i] = w
	}
	for i, w := range work {
		for w != 0 {
			n := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			switch s.pstate[n] {
			case PowerWaking:
				if r := &s.routers[n]; now >= r.wakeAt {
					r.completeWake(now)
				}
			case PowerAsleep:
				s.pollBits[n>>6] &^= 1 << (uint(n) & 63)
				if pol != nil && pol.WantWake(now, s.index, n) {
					s.routers[n].wake(now, s.net.cfg.TWakeup, WakePolicy)
				}
			default: // PowerActive: a due check and/or a blocked re-eval
				blocked := s.blockedBits[n>>6]&(1<<(uint(n)&63)) != 0
				if due[n>>6]&(1<<(uint(n)&63)) != 0 || (evalAll && blocked) {
					s.routers[n].powerCheck(now, blocked)
				}
			}
		}
	}
}

// powerPhaseScan is the retained reference implementation: every router,
// every cycle.
//
//catnap:hotpath
func (s *Subnet) powerPhaseScan(now int64) {
	for n := range s.routers {
		s.routers[n].powerUpdate(now)
	}
}

// flushCSC closes any open sleep periods at end of simulation.
func (s *Subnet) flushCSC(now int64) {
	for n := range s.routers {
		s.routers[n].csc.Flush(now)
	}
}

// ActiveRouters returns how many routers are currently in the active or
// waking state. O(1): read from the per-state counts.
func (s *Subnet) ActiveRouters() int {
	return len(s.routers) - s.stateCount[PowerAsleep]
}

// PowerStates returns the router counts in each power state; telemetry
// samples it per cycle for the Figure 12-style power-state series. O(1).
//
//catnap:hotpath
func (s *Subnet) PowerStates() (active, waking, asleep int) {
	return s.stateCount[PowerActive], s.stateCount[PowerWaking], s.stateCount[PowerAsleep]
}

// BufferedFlits returns the total flits buffered across every router in
// the subnet (the occupancy the BFA metric averages). O(1).
//
//catnap:hotpath
func (s *Subnet) BufferedFlits() int { return s.bufferedFlits }

// MaxBFM returns the maximum per-router BFM (max input-port occupancy)
// over the subnet — the subnet-wide view of the paper's chosen local
// congestion metric. Amortized O(1): bfmMax only rises to the exact new
// value on delivery and is lazily walked down over the router histogram
// on reads after drains.
//
//catnap:hotpath
func (s *Subnet) MaxBFM() int {
	for s.bfmMax > 0 && s.bfmHist[s.bfmMax] == 0 {
		s.bfmMax--
	}
	return s.bfmMax
}

// OccupiedBits exposes the occupied-router bitmap (bit n of word n/64 set
// iff router n buffers at least one flit). Congestion detection iterates
// it instead of scanning the mesh; callers must not modify it.
//
//catnap:hotpath
func (s *Subnet) OccupiedBits() []uint64 { return s.occBits }

// PowerStatesScan recomputes PowerStates by scanning every router — the
// reference for consistency checks and differential tests.
func (s *Subnet) PowerStatesScan() (active, waking, asleep int) {
	for n := range s.routers {
		switch s.pstate[n] {
		case PowerActive:
			active++
		case PowerWaking:
			waking++
		default:
			asleep++
		}
	}
	return
}

// BufferedFlitsScan recomputes BufferedFlits by scanning every router.
func (s *Subnet) BufferedFlitsScan() int {
	t := 0
	for n := range s.routers {
		t += s.routers[n].TotalOccupancyScan()
	}
	return t
}

// MaxBFMScan recomputes MaxBFM by scanning every router.
func (s *Subnet) MaxBFMScan() int {
	m := 0
	for n := range s.routers {
		if b := s.routers[n].MaxPortOccupancyScan(); b > m {
			m = b
		}
	}
	return m
}

// --- incremental aggregate maintenance -------------------------------

// noteBFM moves one router between max-port-occupancy histogram buckets.
//
//catnap:hotpath
func (s *Subnet) noteBFM(from, to int) {
	s.bfmHist[from]--
	s.bfmHist[to]++
	if to > s.bfmMax {
		s.bfmMax = to
	}
}

// setOccupied marks router n as holding buffered flits. Gaining a flit
// also cancels any sleep-blocked status: the router is busy again.
//
//catnap:hotpath
func (s *Subnet) setOccupied(n int) {
	s.occBits[n>>6] |= 1 << (uint(n) & 63)
	s.blockedBits[n>>6] &^= 1 << (uint(n) & 63)
}

// clearOccupied marks router n as empty.
//
//catnap:hotpath
func (s *Subnet) clearOccupied(n int) {
	s.occBits[n>>6] &^= 1 << (uint(n) & 63)
}

// setBlocked / clearBlocked maintain the sleep-blocked set (idle long
// enough to sleep, but the policy said no; re-evaluated on policy-epoch
// changes instead of every cycle).
//
//catnap:hotpath
func (s *Subnet) setBlocked(n int) { s.blockedBits[n>>6] |= 1 << (uint(n) & 63) }

//catnap:hotpath
func (s *Subnet) clearBlocked(n int) { s.blockedBits[n>>6] &^= 1 << (uint(n) & 63) }

// onSleep records an Active→Asleep transition. The fresh sleeper is owed
// one WantWake poll on the next power phase even if the policy epoch does
// not move (a generic epoched policy may want it straight back up).
//
//catnap:hotpath
func (s *Subnet) onSleep(n int) {
	s.stateCount[PowerActive]--
	s.stateCount[PowerAsleep]++
	s.asleepBits[n>>6] |= 1 << (uint(n) & 63)
	s.pollBits[n>>6] |= 1 << (uint(n) & 63)
	s.blockedBits[n>>6] &^= 1 << (uint(n) & 63)
}

// onWakeStart records an Asleep→Waking transition.
//
//catnap:hotpath
func (s *Subnet) onWakeStart(n int) {
	s.stateCount[PowerAsleep]--
	s.stateCount[PowerWaking]++
	s.asleepBits[n>>6] &^= 1 << (uint(n) & 63)
	s.pollBits[n>>6] &^= 1 << (uint(n) & 63)
	s.wakingBits[n>>6] |= 1 << (uint(n) & 63)
}

// onWakeDone records a Waking→Active transition.
//
//catnap:hotpath
func (s *Subnet) onWakeDone(n int) {
	s.stateCount[PowerWaking]--
	s.stateCount[PowerActive]++
	s.wakingBits[n>>6] &^= 1 << (uint(n) & 63)
}

//catnap:hotpath
func (s *Subnet) slotCheck(cycle int64) int { return int(cycle % int64(len(s.checkWheel))) }

// scheduleCheck (re)schedules router r's next sleep-eligibility check at
// max(lastBusy+TIdleDetect, now) — the first cycle its idle streak can
// reach the detection threshold, clamped so a long-idle router (e.g. at
// re-arm) is checked immediately. A single checkAt overwrite invalidates
// any previously staged entry. No-op on the reference path or without a
// gating policy; SetGatingPolicy re-arms every router when one appears.
//
//catnap:hotpath
func (s *Subnet) scheduleCheck(r *Router, now int64) {
	if s.refScan || s.net.gating == nil {
		return
	}
	at := s.lastBusy[r.node] + int64(s.net.cfg.TIdleDetect)
	if at < now {
		at = now
	}
	if r.checkAt == at {
		return
	}
	r.checkAt = at
	i := s.slotCheck(at)
	s.checkWheel[i] = append(s.checkWheel[i], int32(r.node))
}

// rearmChecks schedules a sleep check for every active router and forces
// a full policy re-evaluation at the next power phase. Called when a
// gating policy is installed or the stepping mode changes.
func (s *Subnet) rearmChecks(now int64) {
	s.lastEpoch = ^uint64(0)
	for i := range s.blockedBits {
		s.blockedBits[i] = 0
	}
	for n := range s.routers {
		if s.pstate[n] == PowerActive {
			s.scheduleCheck(&s.routers[n], now)
		}
	}
}

// checkAggregates cross-checks every incremental aggregate against its
// scan-based reference; tests and invariant checks call it.
func (s *Subnet) checkAggregates() string {
	if a, w, z := s.PowerStates(); true {
		as, ws, zs := s.PowerStatesScan()
		if a != as || w != ws || z != zs {
			return "power-state counts drifted from scan"
		}
	}
	if s.bufferedFlits != s.BufferedFlitsScan() {
		return "bufferedFlits drifted from scan"
	}
	if s.MaxBFM() != s.MaxBFMScan() {
		return "MaxBFM drifted from scan"
	}
	for n := range s.routers {
		r := &s.routers[n]
		if r.totalOcc != r.TotalOccupancyScan() {
			return "router totalOcc drifted from scan"
		}
		if r.maxPortOcc != r.MaxPortOccupancyScan() {
			return "router maxPortOcc drifted from scan"
		}
		bit := s.occBits[n>>6]&(1<<(uint(n)&63)) != 0
		if bit != (r.totalOcc > 0) {
			return "occBits inconsistent with occupancy"
		}
		inState := func(b []uint64) bool { return b[n>>6]&(1<<(uint(n)&63)) != 0 }
		if inState(s.asleepBits) != (s.pstate[n] == PowerAsleep) {
			return "asleepBits inconsistent with state"
		}
		if inState(s.wakingBits) != (s.pstate[n] == PowerWaking) {
			return "wakingBits inconsistent with state"
		}
	}
	return ""
}
