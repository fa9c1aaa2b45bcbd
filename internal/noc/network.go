package noc

import (
	"fmt"
	"math/bits"

	"github.com/catnap-noc/catnap/internal/stats"
	"github.com/catnap-noc/catnap/internal/topology"
)

// Network is one complete on-chip network: Subnets parallel subnetworks
// over a shared concentrated mesh, one NI per node, a subnet-selection
// policy and an optional power-gating policy.
//
// The per-cycle execution order (Step) is:
//
//  1. deliver  — staged link flits, credits, and ejections land
//  2. inject   — NIs admit, select subnets for, and stream packets
//  3. route    — every active router runs VC and switch allocation
//  4. power    — routers advance gating state machines
//  5. observe  — congestion sampling, RCS latching, system models
//
// Phases 1–3 only *stage* future events (wheels), so no router observes
// another router's same-cycle decisions: the simulation is deterministic
// and order-independent within a phase.
type Network struct {
	cfg *Config
	// pre is the shared immutable precompute for cfg's topology shape
	// (topology object, feeder table); see precompute.go. Swapped by
	// Reset when the shape changes, never mutated.
	pre       *precomp
	topo      topology.Topology
	localPort int
	subnets   []*Subnet
	nis       []*NI
	selector  SubnetSelector
	gating    GatingPolicy
	obs       []CycleObserver
	tracer    PowerTracer

	now        int64
	nextPktID  uint64
	sinks      []func(now int64, p *Packet)
	inFlight   int64
	latency    *stats.Latency
	netLatency *stats.Latency

	// recycle enables the per-NI packet freelist: delivered packets are
	// reused by later NewPacket calls at the same source node.
	recycle bool
	// refScan selects the retained O(nodes) scan-based router/power/
	// sampling phases instead of the incremental O(active) ones; results
	// are bit-identical either way (the differential tests assert it).
	refScan bool
	// idleSkip arms event-driven idle fast-forward (see skip.go): when
	// the network is fully quiescent, TrySkipIdle jumps n.now directly to
	// the next staged event instead of stepping empty cycles.
	idleSkip bool
	// epochFn caches the gating policy's EpochedPolicy method, if it
	// implements one, so the power phase re-evaluates asleep and
	// sleep-blocked routers only when the policy's answers can change.
	epochFn func() uint64

	// Network-wide NI aggregates, mutated only in the sequential inject
	// phase: total bounded-queue occupancy with a nonempty-queue bitmap
	// (IQOcc congestion sampling, telemetry), and per-subnet injected
	// flit totals (subnet shares without walking the NIs).
	niQueueFlits   int
	niQBits        []uint64
	flitsPerSubnet []int64
	// niWorkBits marks NIs with any packet not yet fully streamed into
	// the network (source queue, bounded queue, or an active channel).
	// The inject phase visits only marked NIs on the incremental path: an
	// unmarked NI's injectPhase is a complete no-op. Set on enqueue,
	// cleared by injectPhase itself when the NI goes fully idle.
	niWorkBits []uint64

	injectedPkts int64
	ejectedPkts  int64
	ejectedFlits int64
	createdPkts  int64
}

// New builds a network from cfg with the given subnet selector. cfg is
// copied; the selector must be non-nil. Power gating is disabled until
// SetGatingPolicy is called.
//
// New is a thin shell over Reset: it allocates the network and lets
// Reset build every per-run structure. A reset network and a fresh one
// therefore run identical construction code.
//
//catnap:reset-covered every per-run structure is built by Reset itself
func New(cfg Config, selector SubnetSelector) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg, selector); err != nil {
		return nil, err
	}
	return n, nil
}

// SetGatingPolicy installs (or, with nil, removes) the power-gating
// policy. Call before stepping. If the policy implements EpochedPolicy,
// steady-state sleep/wake decisions are re-evaluated only when its epoch
// moves; otherwise it is polled every cycle like the reference path.
func (n *Network) SetGatingPolicy(p GatingPolicy) {
	n.gating = p
	n.epochFn = nil
	if ep, ok := p.(EpochedPolicy); ok {
		n.epochFn = ep.PolicyEpoch
	}
	if p != nil && !n.refScan {
		for _, s := range n.subnets {
			s.rearmChecks(n.now)
		}
	}
}

// applyReferenceScan is SetExecMode's reference-scan transition: a no-op
// when the mode already matches, otherwise it converts the idle-streak
// representation and re-arms sleep checks.
func (n *Network) applyReferenceScan(on bool) {
	if n.refScan == on {
		return
	}
	n.refScan = on
	for _, s := range n.subnets {
		s.refScan = on
		for i := range s.routers {
			if s.pstate[i] != PowerActive {
				continue
			}
			r := &s.routers[i]
			if on {
				r.emptySince = s.lastBusy[i] + 1
			} else {
				s.lastBusy[i] = r.emptySince - 1
			}
		}
		if !on && n.gating != nil {
			s.rearmChecks(n.now)
		}
	}
	if !on {
		// Entering fast mode: the work bitmap was not maintained while
		// scanning, so rebuild it from the ground truth.
		for i := range n.niWorkBits {
			n.niWorkBits[i] = 0
		}
		for node, ni := range n.nis {
			if ni.Backlogged() {
				n.niWorkBits[node>>6] |= 1 << (uint(node) & 63)
			}
		}
	}
}

// ReferenceScan reports whether the scan-based reference path is active.
func (n *Network) ReferenceScan() bool { return n.refScan }

// SetSelector replaces the subnet-selection policy. Policies that read
// congestion state need the network to exist before they can be built, so
// the usual construction order is: New with a placeholder selector, build
// the detector over the network, then SetSelector with the real policy.
func (n *Network) SetSelector(s SubnetSelector) {
	if s == nil {
		panic("noc: nil subnet selector")
	}
	n.selector = s
}

// AddObserver registers an end-of-cycle observer. Observers run in
// registration order.
func (n *Network) AddObserver(o CycleObserver) { n.obs = append(n.obs, o) }

// Observers returns the number of registered end-of-cycle observers
// (telemetry's free-when-off guard asserts on it).
func (n *Network) Observers() int { return len(n.obs) }

// SetPowerTracer installs (or, with nil, removes) the power-transition
// tracer. The default is nil: no tracing, no per-transition overhead
// beyond a pointer compare.
func (n *Network) SetPowerTracer(t PowerTracer) { n.tracer = t }

// PowerTracer returns the installed power-transition tracer, or nil.
func (n *Network) PowerTracer() PowerTracer { return n.tracer }

// AddSink registers a delivery callback invoked for every packet when its
// tail flit ejects; closed-loop system models use one to unblock cores,
// measurement windows use another. Sinks run in registration order.
func (n *Network) AddSink(f func(now int64, p *Packet)) { n.sinks = append(n.sinks, f) }

// Config returns the network's configuration (read-only by convention).
func (n *Network) Config() *Config { return n.cfg }

// Topo returns the network topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Subnet returns subnetwork s.
//
//catnap:hotpath
func (n *Network) Subnet(s int) *Subnet { return n.subnets[s] }

// Subnets returns the number of subnetworks.
func (n *Network) Subnets() int { return len(n.subnets) }

// NI returns the network interface of node i.
//
//catnap:hotpath
func (n *Network) NI(i int) *NI { return n.nis[i] }

// Now returns the current cycle (the cycle the next Step will execute).
func (n *Network) Now() int64 { return n.now }

// NewPacket creates a packet from src to dst with a unique ID and the
// current cycle as its creation time, and enqueues it at src's NI source
// queue. It returns the packet for callers that track completion; see
// ExecMode.PacketRecycling for the lifetime caveat.
//
//catnap:hotpath called once per injected packet
//catnap:reset-covered packets live in queues/wheels Reset clears; the freelist is retained and every recycled packet is fully overwritten here
func (n *Network) NewPacket(src, dst int, class MsgClass, sizeBits int) *Packet {
	ni := n.nis[src]
	var p *Packet
	if k := len(ni.free) - 1; n.recycle && k >= 0 {
		p = ni.free[k]
		ni.free[k] = nil
		ni.free = ni.free[:k]
	} else {
		//lint:ignore hotpathalloc freelist miss: one allocation per live packet, amortised away once recycling warms the freelist
		p = new(Packet)
	}
	*p = Packet{
		ID:         n.nextPktID,
		Src:        src,
		Dst:        dst,
		Class:      class,
		SizeBits:   sizeBits,
		CreateTime: n.now,
		Subnet:     -1,
	}
	n.nextPktID++
	n.createdPkts++
	n.inFlight++
	ni.enqueue(p)
	n.niWorkBits[src>>6] |= 1 << (uint(src) & 63)
	return p
}

// Step advances the network by one cycle.
//
//catnap:hotpath the per-cycle entry point; the bench-core guard asserts 0 B/cycle through here
func (n *Network) Step() {
	t := n.now
	for _, s := range n.subnets {
		s.deliverPhase(t)
	}
	if n.refScan {
		for _, ni := range n.nis {
			ni.injectPhase(t)
		}
	} else {
		// Only NIs with pending work: injectPhase clears its own bit when
		// the NI drains, and word snapshots make that safe mid-iteration.
		for i, w := range n.niWorkBits {
			for w != 0 {
				node := i<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				n.nis[node].injectPhase(t)
			}
		}
	}
	for _, s := range n.subnets {
		s.routerPhase(t)
	}
	for _, s := range n.subnets {
		s.powerPhase(t)
	}
	for _, o := range n.obs {
		o.AfterCycle(t)
	}
	n.now = t + 1
}

// Run advances the network by cycles steps.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain steps the network until no packet is in flight or maxCycles
// elapse; it returns true if the network fully drained. Useful at the end
// of finite workloads.
func (n *Network) Drain(maxCycles int64) bool {
	deadline := n.now + maxCycles
	for n.inFlight > 0 && n.now < deadline {
		n.Step()
	}
	return n.inFlight == 0
}

// eject completes a flit's journey at its destination NI; the tail flit
// completes the packet.
//
//catnap:hotpath called once per delivered flit
func (n *Network) eject(now int64, node int, f flit) {
	p := f.pkt
	if p.Dst != node {
		panic(fmt.Sprintf("noc: packet %d ejected at node %d, wanted %d", p.ID, node, p.Dst))
	}
	n.ejectedFlits++
	if !f.tail() {
		return
	}
	p.ArriveTime = now
	n.ejectedPkts++
	n.inFlight--
	n.latency.Observe(p.Latency())
	n.netLatency.Observe(p.NetworkLatency())
	for _, sink := range n.sinks {
		sink(now, p)
	}
	if n.recycle {
		// All sinks have run; the struct may now be reused by the next
		// NewPacket at the source node (see ExecMode.PacketRecycling).
		n.nis[p.Src].free = append(n.nis[p.Src].free, p)
	}
}

// niStreaming reports whether node's NI is mid-packet into subnet s.
//
//catnap:hotpath
func (n *Network) niStreaming(s, node int) bool { return n.nis[node].streaming(s) }

// FlushCSC closes all open sleep periods; call once before reading CSC.
func (n *Network) FlushCSC() {
	for _, s := range n.subnets {
		s.flushCSC(n.now)
	}
}

// Latency returns the end-to-end packet latency distribution (source
// queue entry to tail ejection).
func (n *Network) Latency() *stats.Latency { return n.latency }

// NetworkLatency returns the in-network latency distribution (head
// injection to tail ejection).
func (n *Network) NetworkLatency() *stats.Latency { return n.netLatency }

// Counts returns cumulative packet counters: created (entered a source
// queue), injected (head flit entered a subnet), ejected (tail flit
// delivered).
//
//catnap:hotpath
func (n *Network) Counts() (created, injected, ejected int64) {
	return n.createdPkts, n.injectedPkts, n.ejectedPkts
}

// EjectedFlits returns the cumulative ejected flit count.
func (n *Network) EjectedFlits() int64 { return n.ejectedFlits }

// InFlight returns the number of packets created but not yet delivered.
func (n *Network) InFlight() int64 { return n.inFlight }

// Events returns a fresh aggregate of all subnets' power events.
func (n *Network) Events() PowerEvents {
	var e PowerEvents
	for _, s := range n.subnets {
		e.Add(s.events)
	}
	return e
}

// CompensatedSleepCycles returns the total compensated sleep cycles summed
// over every router in every subnet, and the corresponding router-cycle
// total (elapsed × routers), so callers can report the paper's CSC
// percentage. Call FlushCSC first.
func (n *Network) CompensatedSleepCycles() (csc, routerCycles int64) {
	for _, s := range n.subnets {
		for i := range s.routers {
			csc += s.routers[i].csc.Compensated()
		}
	}
	routerCycles = n.now * int64(n.cfg.Nodes()) * int64(n.cfg.Subnets)
	return csc, routerCycles
}

// SubnetFlitShare returns, for each subnet, the fraction of all injected
// flits that entered it (Figure 12(b)'s utilization series reads this
// windowed; this is the cumulative version used by tests).
func (n *Network) SubnetFlitShare() []float64 {
	total := int64(0)
	for _, c := range n.flitsPerSubnet {
		total += c
	}
	share := make([]float64, n.cfg.Subnets)
	if total == 0 {
		return share
	}
	for s := range share {
		share[s] = float64(n.flitsPerSubnet[s]) / float64(total)
	}
	return share
}

// FlitsPerSubnet returns the network-wide injected flit count per subnet
// (the sum of every NI's FlitsPerSubnet). Callers must not modify it.
//
//catnap:hotpath
func (n *Network) FlitsPerSubnet() []int64 { return n.flitsPerSubnet }

// NIQueueFlits returns the total bounded injection-queue occupancy over
// all NIs, in flits.
//
//catnap:hotpath
func (n *Network) NIQueueFlits() int { return n.niQueueFlits }

// NIQueuedBits exposes a bitmap over node ids with bit n set iff node n's
// bounded injection queue is nonempty; the IQOcc congestion metric
// iterates it instead of polling every NI. Callers must not modify it.
//
//catnap:hotpath
func (n *Network) NIQueuedBits() []uint64 { return n.niQBits }

// setNIQueued maintains the nonempty-injection-queue bitmap; each NI
// calls it at the end of its inject phase.
//
//catnap:hotpath
func (n *Network) setNIQueued(node int, queued bool) {
	if queued {
		n.niQBits[node>>6] |= 1 << (uint(node) & 63)
	} else {
		n.niQBits[node>>6] &^= 1 << (uint(node) & 63)
	}
}
