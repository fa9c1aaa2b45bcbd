package noc

import "math/bits"

// pktQueue is a growable FIFO ring of packets. The previous slice-based
// queues (pop via q = q[1:], push via append) leaked capacity on every
// pop and re-allocated continuously under steady load; the ring reaches
// its high-water capacity once and then never allocates again.
type pktQueue struct {
	buf  []*Packet
	head int
	n    int
}

func (q *pktQueue) len() int { return q.n }

func (q *pktQueue) front() *Packet { return q.buf[q.head] }

func (q *pktQueue) push(p *Packet) {
	if q.n == len(q.buf) {
		// One-time growth to the high-water capacity; steady state never
		// re-enters this branch.
		grown := make([]*Packet, 2*len(q.buf)+4)
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *pktQueue) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil // do not retain packets past their dequeue
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

// pktStream is one packet mid-serialization into a subnet.
type pktStream struct {
	pkt     *Packet
	nextSeq int
	vc      int
}

// subnetChannel is the NI's injection channel into one subnet: the link to
// the subnet's local router input port. The channel carries one flit per
// cycle but may interleave up to VCs packets, one per local-port virtual
// channel — exactly the concurrency VCs exist to provide. The NI is the
// upstream of that input port, so it owns the credit and VC-allocation
// bookkeeping a router output port would own.
type subnetChannel struct {
	streams []pktStream
	credits []int
	// busy bit v marks local-port VC v as carrying a stream. Each live
	// stream owns its own VC, so busy != 0 iff the channel is streaming.
	busy uint32
	rr   int
}

// freeSlot returns an idle stream index, or -1.
func (ch *subnetChannel) freeSlot() int {
	for i := range ch.streams {
		if ch.streams[i].pkt == nil {
			return i
		}
	}
	return -1
}

// freeVC returns the lowest free local-port VC within mask, or -1.
func (ch *subnetChannel) freeVC(mask uint32) int {
	if free := mask &^ ch.busy; free != 0 {
		return bits.TrailingZeros32(free)
	}
	return -1
}

// busyScan rebuilds the channel's busy mask from its streams.
func (ch *subnetChannel) busyScan() uint32 {
	var busy uint32
	for i := range ch.streams {
		if ch.streams[i].pkt != nil {
			busy |= 1 << uint(ch.streams[i].vc)
		}
	}
	return busy
}

// NI is the network interface shared by a node's tiles (four per node in
// the paper's concentrated mesh). It owns the bounded injection queue the
// IQOcc congestion metric reads, an unbounded source queue that absorbs
// open-loop oversubscription, one injection channel per subnet, and the
// ejection path.
type NI struct {
	net  *Network
	node int

	// sourceQ holds packets that have been created but do not yet fit in
	// the bounded injection queue. Open-loop traffic measures offered vs
	// accepted throughput through this queue; closed-loop models keep it
	// near-empty by construction (cores block on MSHRs).
	sourceQ pktQueue
	// injQ is the bounded NI buffer (capacity Config.InjQueueFlits in
	// flits). Packets at its head are assigned a subnet by the selector.
	injQ      pktQueue
	injQFlits int

	// free is the packet freelist: delivered packets whose source is
	// this node, awaiting reuse by NewPacket.
	free []*Packet

	channels []subnetChannel

	// PacketsInjected counts packets injected at this node, for the IR
	// congestion metric.
	PacketsInjected int64
}

// NIs are built (and rebuilt) exclusively by NI.reset in reset.go, which
// Network.Reset drives for fresh shells and reused instances alike; there
// is deliberately no separate constructor whose initialization could
// drift from the reset path.

// enqueue admits a freshly created packet into the source queue.
func (ni *NI) enqueue(p *Packet) {
	ni.sourceQ.push(p)
}

// QueueOccupancyFlits returns the bounded injection queue's occupancy in
// flits — the IQOcc congestion metric.
func (ni *NI) QueueOccupancyFlits() int { return ni.injQFlits }

// Backlogged reports whether this NI holds any packet that has not yet
// fully entered the network.
func (ni *NI) Backlogged() bool {
	if ni.sourceQ.len() > 0 || ni.injQ.len() > 0 {
		return true
	}
	for s := range ni.channels {
		if ni.channels[s].busy != 0 {
			return true
		}
	}
	return false
}

// streaming reports whether the NI is mid-packet into subnet s (the
// subnet's local router must then stay awake).
func (ni *NI) streaming(s int) bool { return ni.channels[s].busy != 0 }

// creditReturn gives back one buffer slot of the local router's input VC.
func (ni *NI) creditReturn(subnet, vc int) {
	ni.channels[subnet].credits[vc]++
}

// injectPhase runs once per cycle: admit packets into the bounded queue,
// assign the head-of-line packet to a subnet via the selector, and stream
// one flit per subnet channel.
func (ni *NI) injectPhase(now int64) {
	cfg := ni.net.cfg

	fast := !ni.net.refScan
	active := ni.net.activeScratch
	if fast {
		for s := range ni.channels {
			active[s] = ni.channels[s].busy != 0
		}
	}

	// Admit from the source queue while flit capacity remains. Packet
	// flit counts are measured at subnet width (all subnets share one
	// width by construction). A single packet larger than the whole queue
	// is admitted alone.
	for ni.sourceQ.len() > 0 {
		p := ni.sourceQ.front()
		nf := FlitsForWidth(p.SizeBits, cfg.LinkWidthBits)
		if ni.injQFlits+nf > cfg.InjQueueFlits && ni.injQFlits > 0 {
			break
		}
		p.NumFlits = nf
		ni.injQ.push(ni.sourceQ.pop())
		ni.injQFlits += nf
	}

	// Head-of-line subnet selection: the head packet is assigned to a
	// subnet whose channel has a free stream slot and a free local VC for
	// the packet's class.
	if ni.injQ.len() > 0 {
		head := ni.injQ.front()
		mask := cfg.vcMask(head.Class)
		ready := ni.net.readyScratch
		for s := range ready {
			ch := &ni.channels[s]
			ready[s] = ch.freeSlot() >= 0 && ch.freeVC(mask) >= 0
		}
		if s := ni.net.selector.Select(now, ni.node, head, ready); s >= 0 {
			if s >= cfg.Subnets || !ready[s] {
				panic("noc: selector chose an unavailable subnet")
			}
			ch := &ni.channels[s]
			slot := ch.freeSlot()
			vc := ch.freeVC(mask)
			ch.streams[slot] = pktStream{pkt: head, vc: vc}
			ch.busy |= 1 << uint(vc)
			head.Subnet = s
			ni.injQ.pop()
		}
	}

	// Stream one flit per channel, round-robin over its active streams
	// that hold credits, provided the subnet's local router is awake.
	for s := range ni.channels {
		ch := &ni.channels[s]
		if ch.busy == 0 {
			continue
		}
		sub := ni.net.subnets[s]
		if st := sub.pstate[ni.node]; st != PowerActive {
			if st == PowerAsleep {
				// NI wake-up: nothing hides the latency here; the packet
				// waits out the full T-wakeup.
				sub.routers[ni.node].wake(now, cfg.TWakeup, WakeNI)
				ni.net.events.WakeupSignals++
			}
			continue
		}
		n := len(ch.streams)
		for k, i := 0, ch.rr; k < n; k++ {
			st := &ch.streams[i]
			if i++; i == n {
				i = 0
			}
			if st.pkt == nil || ch.credits[st.vc] <= 0 {
				continue
			}
			ni.streamFlit(now, s, ch, st)
			ch.rr = i
			break
		}
	}

	ni.net.setNIQueued(ni.node, ni.injQFlits > 0)
	if fast {
		// A channel that was streaming at the previous power phase and
		// finished this cycle ends its router's busy streak: the router
		// was busy at cycle now-1 (a packet was mid-stream then). A
		// packet selected and fully streamed within this same phase never
		// spanned a power phase and must not extend the streak — exactly
		// matching the reference path, which samples streaming state only
		// at power phases.
		for s := range ni.channels {
			if active[s] && ni.channels[s].busy == 0 {
				ni.net.subnets[s].routers[ni.node].noteBusyEnd(now, now-1)
			}
		}
		// A fully drained NI drops out of the inject-phase work list; the
		// next NewPacket at this node re-marks it.
		if !ni.Backlogged() {
			ni.net.niWorkBits[ni.node>>6] &^= 1 << (uint(ni.node) & 63)
		}
	}
}

// streamFlit sends the next flit of one stream into the subnet.
func (ni *NI) streamFlit(now int64, s int, ch *subnetChannel, st *pktStream) {
	cfg := ni.net.cfg
	p := st.pkt
	f := flit{pkt: p, seq: int32(st.nextSeq), last: st.nextSeq == p.NumFlits-1}
	if f.head() {
		f.nextPort = uint16(ni.net.topo.RoutePort(ni.node, p.Dst))
		p.InjectTime = now
		ni.PacketsInjected++
		ni.net.injectedPkts++
	}
	ch.credits[st.vc]--
	sub := ni.net.subnets[s]
	sub.stageArrival(now+int64(cfg.LinkDelay), ni.node, ni.net.localPort, st.vc, f)
	ni.net.events.NIFlits++
	ni.net.flitsPerSubnet[s]++
	ni.injQFlits--
	st.nextSeq++
	if st.nextSeq == p.NumFlits {
		ch.busy &^= 1 << uint(st.vc)
		*st = pktStream{}
	}
}
