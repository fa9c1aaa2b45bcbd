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

	now     int64
	sinks   []func(now int64, p *Packet)
	latency *stats.Latency
	// netLatencySum is the cumulative in-network latency (head injection
	// to tail ejection) of every delivered packet.
	netLatencySum int64

	// refScan selects the retained O(nodes) scan-based phases instead of
	// the incremental O(active) ones, and disables idle fast-forward;
	// results are bit-identical either way (the differential tests).
	refScan bool

	// Network-wide NI aggregates, mutated only in the sequential inject
	// phase: a nonempty-queue bitmap (IQOcc congestion sampling,
	// telemetry's queue sum), and per-subnet injected flit totals (subnet
	// shares without walking the NIs).
	niQBits        []uint64
	flitsPerSubnet []int64
	// readyScratch and activeScratch are the inject phase's per-subnet
	// scratch, shared by every NI because NIs inject one at a time:
	// readyScratch is the selector's ready set, and activeScratch
	// snapshots which channels were mid-stream at the top of an NI's
	// inject phase (a channel streaming then and idle afterwards just
	// ended its router's NI-busy condition, which the incremental power
	// path accounts for lazily).
	readyScratch  []bool
	activeScratch []bool
	// niWorkBits marks NIs with any packet not yet fully streamed into
	// the network (source queue, bounded queue, or an active channel).
	// The inject phase visits only marked NIs on the incremental path: an
	// unmarked NI's injectPhase is a complete no-op. Set on enqueue,
	// cleared by injectPhase itself when the NI goes fully idle.
	niWorkBits []uint64

	// createdPkts also numbers packets (the next ID), and createdPkts -
	// ejectedPkts is the count in flight.
	injectedPkts int64
	ejectedPkts  int64
	ejectedFlits int64
	createdPkts  int64

	// events counts switching activity and state residency over every
	// subnet; routers, NIs, the power phase and idle skip add to it.
	events PowerEvents
}

// New builds a network from cfg with the given subnet selector. cfg is
// copied; the selector must be non-nil. Power gating is disabled until
// SetGatingPolicy is called.
//
// New is a thin shell over Reset: it allocates the network and lets
// Reset build every per-run structure. A reset network and a fresh one
// therefore run identical construction code.
func New(cfg Config, selector SubnetSelector) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg, selector); err != nil {
		return nil, err
	}
	return n, nil
}

// SetGatingPolicy installs (or, with nil, removes) the power-gating
// policy. Call before stepping. Steady-state sleep/wake decisions are
// re-evaluated only when the policy's epoch moves (see GatingPolicy).
func (n *Network) SetGatingPolicy(p GatingPolicy) {
	n.gating = p
	if p != nil && !n.refScan {
		for _, s := range n.subnets {
			s.rearmChecks(n.now)
		}
	}
}

// SetReferenceScan selects (on) or deselects the retained O(nodes) scan
// path, the oracle the differential suites compare the incremental path
// and idle fast-forward against; a congestion detector follows it. The
// path is fixed for the run: SetReferenceScan panics once n has stepped.
func (n *Network) SetReferenceScan(on bool) {
	if n.now != 0 {
		panic("noc: SetReferenceScan after the network has stepped")
	}
	n.refScan = on
	for _, s := range n.subnets {
		s.refScan = on
		if n.gating != nil {
			s.rearmChecks(0) // schedules sleep checks only when !on
		}
	}
}

// ReferenceScan reports whether the scan-based reference path is selected.
// A congestion detector over the network reads it every cycle to pick
// its own scan or incremental sampling path.
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
// measurement windows use another. Sinks run in registration order and
// must not keep the *Packet after they return (see NewPacket).
func (n *Network) AddSink(f func(now int64, p *Packet)) { n.sinks = append(n.sinks, f) }

// Config returns the network's configuration (read-only by convention).
func (n *Network) Config() *Config { return n.cfg }

// Topo returns the network topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Subnet returns subnetwork s.
func (n *Network) Subnet(s int) *Subnet { return n.subnets[s] }

// Subnets returns the number of subnetworks.
func (n *Network) Subnets() int { return len(n.subnets) }

// NI returns the network interface of node i.
func (n *Network) NI(i int) *NI { return n.nis[i] }

// Now returns the current cycle (the cycle the next Step will execute).
func (n *Network) Now() int64 { return n.now }

// NewPacket creates a packet from src to dst with a unique ID and the
// current cycle as its creation time, and enqueues it at src's NI source
// queue. It returns the packet for callers that track it while in
// flight. Do not keep (or read) a *Packet after its delivery callbacks
// return: the struct then goes to src's freelist and a later NewPacket
// there reuses every field, Payload included.
func (n *Network) NewPacket(src, dst int, class MsgClass, sizeBits int) *Packet {
	ni := n.nis[src]
	var p *Packet
	if k := len(ni.free) - 1; k >= 0 {
		p = ni.free[k]
		ni.free[k] = nil
		ni.free = ni.free[:k]
	} else {
		// Freelist miss: one allocation per live packet, amortised away
		// once recycling warms the freelist.
		p = new(Packet)
	}
	*p = Packet{
		ID:         uint64(n.createdPkts),
		Src:        src,
		Dst:        dst,
		Class:      class,
		SizeBits:   sizeBits,
		CreateTime: n.now,
		Subnet:     -1,
	}
	n.createdPkts++
	ni.enqueue(p)
	n.niWorkBits[src>>6] |= 1 << (uint(src) & 63)
	return p
}

// Step advances the network by one cycle.
//
// Once warm it allocates nothing (TestStepAllocs).
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
	for n.InFlight() > 0 && n.now < deadline {
		n.Step()
	}
	return n.InFlight() == 0
}

// eject completes a flit's journey at its destination NI; the tail flit
// completes the packet.
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
	n.latency.Observe(p.Latency())
	n.netLatencySum += p.NetworkLatency()
	for _, sink := range n.sinks {
		sink(now, p)
	}
	// All sinks have run; the struct may now be reused by the next
	// NewPacket at the source node.
	n.nis[p.Src].free = append(n.nis[p.Src].free, p)
}

// niStreaming reports whether node's NI is mid-packet into subnet s.
func (n *Network) niStreaming(s, node int) bool { return n.nis[node].streaming(s) }

// Latency returns the end-to-end packet latency distribution (source
// queue entry to tail ejection).
func (n *Network) Latency() *stats.Latency { return n.latency }

// NetLatencySum returns the cumulative in-network latency (head
// injection to tail ejection) of every delivered packet, in cycles.
func (n *Network) NetLatencySum() int64 { return n.netLatencySum }

// Counts returns cumulative packet counters: created (entered a source
// queue), injected (head flit entered a subnet), ejected (tail flit
// delivered).
func (n *Network) Counts() (created, injected, ejected int64) {
	return n.createdPkts, n.injectedPkts, n.ejectedPkts
}

// EjectedFlits returns the cumulative ejected flit count.
func (n *Network) EjectedFlits() int64 { return n.ejectedFlits }

// InFlight returns the number of packets created but not yet delivered.
func (n *Network) InFlight() int64 { return n.createdPkts - n.ejectedPkts }

// Events returns a copy of the network's cumulative power events.
func (n *Network) Events() PowerEvents { return n.events }

// CompensatedSleepCycles returns the total compensated sleep cycles summed
// over every router in every subnet as of Now(), and the corresponding
// router-cycle total (elapsed × routers), so callers can report the
// paper's CSC percentage. Closed sleep periods were added up when they
// ended; a period still open counts up to Now() (Router.compensated).
// The read changes nothing, so two reads at one cycle agree.
func (n *Network) CompensatedSleepCycles() (csc, routerCycles int64) {
	for _, s := range n.subnets {
		csc += s.cscClosed
		for i, w := range s.asleepBits {
			for w != 0 {
				node := i<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				csc += s.routers[node].compensated(n.now)
			}
		}
	}
	routerCycles = n.now * int64(n.cfg.Nodes()) * int64(n.cfg.Subnets)
	return csc, routerCycles
}

// FlitsPerSubnet returns the network-wide injected flit count per subnet.
// Callers must not modify it.
func (n *Network) FlitsPerSubnet() []int64 { return n.flitsPerSubnet }

// NIQueuedBits exposes a bitmap over node ids with bit n set iff node n's
// bounded injection queue is nonempty; the IQOcc congestion metric and
// telemetry's queue sum iterate it instead of polling every NI. Callers
// must not modify it.
func (n *Network) NIQueuedBits() []uint64 { return n.niQBits }

// setNIQueued maintains the nonempty-injection-queue bitmap; each NI
// calls it at the end of its inject phase.
func (n *Network) setNIQueued(node int, queued bool) {
	if queued {
		n.niQBits[node>>6] |= 1 << (uint(node) & 63)
	} else {
		n.niQBits[node>>6] &^= 1 << (uint(node) & 63)
	}
}
