// Package noc implements the cycle-level packet-switched network-on-chip
// substrate the paper evaluates: input-buffered virtual-channel routers
// with credit-based wormhole flow control, a two-stage speculative pipeline
// with look-ahead X-Y routing, concentrated mesh links, shared network
// interfaces, and the ability to instantiate one network as several
// parallel subnetworks (Multi-NoC) at constant aggregate datapath width.
//
// The package is policy-free: subnet selection and power gating are
// injected through the SubnetSelector and GatingPolicy interfaces, which
// the Catnap policies (internal/core) and the baselines implement. This
// mirrors the paper's structure: §2 describes the substrate, §3 the
// policies layered on it.
package noc

import "fmt"

// MsgClass identifies a protocol message class. Dependent message classes
// are mapped to disjoint virtual-channel sets to guarantee protocol-level
// deadlock freedom (paper §2.3) when Config.AppTraffic is set.
type MsgClass uint8

// Message classes of the 4-hop MESI directory protocol plus a catch-all
// class for synthetic traffic.
const (
	// ClassRequest carries L1→directory requests (GetS/GetM), one flit.
	ClassRequest MsgClass = iota
	// ClassForward carries directory→owner forwards and invalidations;
	// these are the point-to-point-ordered control messages the paper maps
	// to a fixed lower-order subnet.
	ClassForward
	// ClassResponse carries data responses (cache block + header).
	ClassResponse
	// ClassAck carries short completion acknowledgements and writeback
	// control.
	ClassAck
	// ClassSynthetic is used by the synthetic traffic patterns, which are
	// free to use every virtual channel.
	ClassSynthetic
	// NumClasses is the number of distinct message classes.
	NumClasses
)

// String returns a short mnemonic for the class.
func (c MsgClass) String() string {
	switch c {
	case ClassRequest:
		return "req"
	case ClassForward:
		return "fwd"
	case ClassResponse:
		return "resp"
	case ClassAck:
		return "ack"
	case ClassSynthetic:
		return "syn"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Packet is one network message. A packet is created by a traffic source
// or the coherence protocol, enqueued at its source node's network
// interface, serialized into flits sized to the chosen subnet's datapath
// width, and reassembled (conceptually) at the destination NI.
type Packet struct {
	// ID is unique per network instance, assigned at creation.
	ID uint64
	// Src and Dst are node (router) indices.
	Src, Dst int
	// Class selects the virtual-channel set and, for app traffic, lets the
	// system model route the response.
	Class MsgClass
	// SizeBits is the message payload+header size; the number of flits is
	// derived per subnet width at injection time.
	SizeBits int

	// CreateTime is the cycle the packet entered the source queue.
	CreateTime int64
	// InjectTime is the cycle the head flit entered a subnet router.
	InjectTime int64
	// ArriveTime is the cycle the tail flit was ejected at Dst.
	ArriveTime int64

	// Subnet is the subnetwork the packet was injected into (-1 before
	// selection). All flits of a packet travel in the same subnet.
	Subnet int
	// NumFlits is the serialization length in the selected subnet.
	NumFlits int

	// Payload carries an opaque reference for closed-loop models (e.g. the
	// outstanding-miss record a response should complete). The network
	// never inspects it.
	Payload any
}

// Latency returns the packet's total latency in cycles, from source-queue
// entry to tail ejection.
func (p *Packet) Latency() int64 { return p.ArriveTime - p.CreateTime }

// NetworkLatency returns the in-network latency (head injection to tail
// ejection), excluding source queueing.
func (p *Packet) NetworkLatency() int64 { return p.ArriveTime - p.InjectTime }

// FlitsForWidth returns the serialization length of a packet of sizeBits
// on a datapath of widthBits: a flit cannot exceed the subnet width, and
// every packet is at least one flit (paper §2.3).
func FlitsForWidth(sizeBits, widthBits int) int {
	if sizeBits <= 0 {
		return 1
	}
	n := (sizeBits + widthBits - 1) / widthBits
	if n < 1 {
		n = 1
	}
	return n
}

// flit is one flow-control unit in flight. Flits exist only inside the
// simulator; the public surface deals in Packets. The head flit carries
// the look-ahead route (the output port to request at the *current*
// router, pre-computed by the upstream router per Galles' scheme).
//
// Fields are ordered for a 24-byte flit: every hop copies one through a
// VC ring and a staged arrival.
type flit struct {
	pkt *Packet
	// eligibleAt is the first cycle this flit may win switch allocation at
	// its current router, modelling the router pipeline depth.
	eligibleAt int64
	// seq is the flit index within the packet, 0-based.
	seq int32
	// nextPort is the look-ahead-computed output port at the router this
	// flit currently occupies (meaningful on the head flit; body/tail flits
	// follow the wormhole path allocated by the head). Every radix a valid
	// Config builds fits (see maxMeshDim).
	nextPort uint16
	// crossed records torus dateline crossings (bit 0 = X ring, bit 1 =
	// Y ring). A packet that has crossed a ring's dateline must use the
	// upper dateline VC class in that ring, breaking the ring's cyclic
	// buffer dependency.
	crossed uint8
	// last marks the packet's tail flit (seq == NumFlits-1), set when the
	// NI streams it, so tail checks load no *Packet.
	last bool
}

func (f *flit) head() bool { return f.seq == 0 }

func (f *flit) tail() bool { return f.last }
