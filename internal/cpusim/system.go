package cpusim

import (
	"fmt"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/workload"
)

// Config carries the Table 1 system parameters.
type Config struct {
	// WindowSize is the per-core instruction window (64).
	WindowSize int
	// MSHRs bounds outstanding misses per core (32).
	MSHRs int
	// L1FillLatency is the latency from response arrival to miss
	// completion (2-cycle L1).
	L1FillLatency int
	// L2BankLatency is the shared L2 bank access latency (6).
	L2BankLatency int
	// DRAMLatency is the DRAM access latency (80).
	DRAMLatency int
	// MCConcurrency is the number of concurrent accesses each memory
	// controller sustains (channel-level parallelism).
	MCConcurrency int

	// BurstPhaseCycles and LowPhaseCycles are the mean lengths of the
	// high- and low-MPKI application phases.
	BurstPhaseCycles int
	LowPhaseCycles   int

	// ControlBits and DataBits size the two packet kinds (72-bit header;
	// 64-byte block + header).
	ControlBits int
	DataBits    int

	// Seed feeds every core's (and the directory's) RNG.
	Seed uint64
}

// DefaultConfig returns the Table 1 parameters.
func DefaultConfig() Config {
	return Config{
		WindowSize:       64,
		MSHRs:            32,
		L1FillLatency:    2,
		L2BankLatency:    6,
		DRAMLatency:      80,
		MCConcurrency:    16,
		BurstPhaseCycles: 2000,
		LowPhaseCycles:   8000,
		ControlBits:      72,
		DataBits:         512 + 72,
		Seed:             1,
	}
}

// txnStage is the position of a coherence transaction in the 4-hop MESI
// protocol flow.
type txnStage uint8

const (
	stageReqToHome  txnStage = iota // L1 miss request travelling to the L2 home/directory
	stageFwdToOwner                 // directory forward travelling to the owning L1
	stageReqToMem                   // L2 miss travelling to the memory controller
	stageDataToReq                  // data response travelling to the requester
	stageAckToHome                  // completion ack travelling to the directory
	stageWriteback                  // evicted dirty block travelling to its home
)

// txn is one in-flight miss transaction.
type txn struct {
	core    int
	missIdx int
	home    int
	stage   txnStage
}

// event is a scheduled simulator action (directory lookups completing,
// DRAM accesses finishing, L1 fills).
type event struct {
	at   int64
	seq  int64 // tie-break for determinism
	kind eventKind
	t    *txn
	// packet send parameters for evSend.
	src, dst int
	class    noc.MsgClass
	bits     int
}

type eventKind uint8

const (
	evSend eventKind = iota
	evComplete
)

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// typed rather than built on container/heap so that pushing and popping
// an event never boxes it in an interface (an allocation per event).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push adds e, sifting it up to its place.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // drop the *txn reference
	q = q[:last]
	for i := 0; ; {
		min, l := i, 2*i+1
		if l < len(q) && q.less(l, min) {
			min = l
		}
		if r := l + 1; r < len(q) && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// mc is one memory controller with channel-level parallelism.
type mc struct {
	node      int
	busyUntil []int64
	requests  int64
}

// service returns the completion time of a request arriving at now,
// claiming the earliest-free channel.
func (m *mc) service(now int64, dram int64) int64 {
	best := 0
	for i := 1; i < len(m.busyUntil); i++ {
		if m.busyUntil[i] < m.busyUntil[best] {
			best = i
		}
	}
	start := now
	if m.busyUntil[best] > start {
		start = m.busyUntil[best]
	}
	done := start + dram
	m.busyUntil[best] = done
	m.requests++
	return done
}

// System ties cores, directories, and memory controllers to a network. It
// registers as the network's sink and as a cycle observer; the owner just
// steps the network.
type System struct {
	cfg   Config
	net   *noc.Network
	cores []Core
	mcs   []*mc
	mcOf  map[int]*mc
	rng   *sim.RNG

	events eventHeap
	evSeq  int64
	// free recycles txn records whose transaction has ended (miss
	// completion, or ack or writeback delivery).
	free []*txn

	// Measurement baselines (set by StartMeasurement).
	baseRetired []int64
	baseCycle   int64

	// Transaction statistics.
	missesIssued    int64
	missesCompleted int64
}

// New builds a system over net running the given Table 3 mix. The
// network's sink and observer slots are claimed by the system.
func New(net *noc.Network, cfg Config, mix *workload.Mix) (*System, error) {
	mesh := net.Topo()
	cores := mesh.Tiles()
	assign, err := mix.CoreAssignment(cores)
	if err != nil {
		return nil, err
	}
	return newSystem(net, cfg, assign)
}

// NewWithAssignment builds a system with an explicit per-core profile
// assignment (len must equal the mesh's tile count).
func NewWithAssignment(net *noc.Network, cfg Config, assign []*workload.Profile) (*System, error) {
	if len(assign) != net.Topo().Tiles() {
		return nil, fmt.Errorf("cpusim: %d profiles for %d tiles", len(assign), net.Topo().Tiles())
	}
	return newSystem(net, cfg, assign)
}

func newSystem(net *noc.Network, cfg Config, assign []*workload.Profile) (*System, error) {
	if cfg.WindowSize <= 0 || cfg.MSHRs <= 0 {
		return nil, fmt.Errorf("cpusim: invalid window/MSHR config")
	}
	mesh := net.Topo()
	s := &System{cfg: cfg, net: net, rng: sim.NewRNG(cfg.Seed), mcOf: map[int]*mc{}}

	for _, n := range DefaultMCNodes(mesh.Rows(), mesh.Cols()) {
		m := &mc{node: n, busyUntil: make([]int64, cfg.MCConcurrency)}
		s.mcs = append(s.mcs, m)
		s.mcOf[n] = m
	}

	s.cores = make([]Core, len(assign))
	rings := make([]missRecord, len(assign)*cfg.MSHRs)
	root := sim.NewRNG(cfg.Seed)
	for i, prof := range assign {
		ring := rings[i*cfg.MSHRs : (i+1)*cfg.MSHRs : (i+1)*cfg.MSHRs]
		s.cores[i].init(s, i, mesh.NodeOfTile(i), prof, root, ring)
	}
	s.baseRetired = make([]int64, len(assign))

	net.AddSink(s.onPacket)
	net.AddObserver(s)
	return s, nil
}

// DefaultMCNodes returns the paper's edge placement: half the controllers
// down the west edge, half down the east edge, evenly spaced.
func DefaultMCNodes(rows, cols int) []int {
	nodes := make([]int, 0, 8)
	step := rows / 4
	if step == 0 {
		step = 1
	}
	for y := 0; y < rows && len(nodes) < 4; y += step {
		nodes = append(nodes, y*cols) // west edge
	}
	for y := step / 2; y < rows && len(nodes) < 8; y += step {
		nodes = append(nodes, y*cols+cols-1) // east edge
	}
	return nodes
}

// schedule pushes an event.
func (s *System) schedule(e event) {
	e.seq = s.evSeq
	s.evSeq++
	s.events.push(e)
}

// newTxn returns a transaction record, recycled when one is free.
func (s *System) newTxn(core, missIdx, home int, stage txnStage) *txn {
	var t *txn
	if k := len(s.free) - 1; k >= 0 {
		t = s.free[k]
		s.free = s.free[:k]
	} else {
		t = new(txn)
	}
	*t = txn{core: core, missIdx: missIdx, home: home, stage: stage}
	return t
}

// launchMiss starts the coherence transaction for core c's miss.
func (s *System) launchMiss(now int64, c *Core, missIdx int) {
	s.missesIssued++
	home := s.rng.Intn(s.net.Topo().Nodes())
	t := s.newTxn(c.id, missIdx, home, stageReqToHome)
	// The request leaves the core immediately (L1 miss detection folded
	// into the L1 latency already modelled at fill).
	p := s.net.NewPacket(c.node, home, noc.ClassRequest, s.cfg.ControlBits)
	p.Payload = t
}

// onPacket advances a transaction when one of its packets is delivered.
func (s *System) onPacket(now int64, p *noc.Packet) {
	t, ok := p.Payload.(*txn)
	if !ok {
		return // foreign traffic (mixed workloads) — not ours
	}
	c := &s.cores[t.core]
	switch t.stage {
	case stageReqToHome:
		// Directory + L2 tag lookup at the home node.
		prof := c.prof
		ready := now + int64(s.cfg.L2BankLatency)
		switch {
		case s.rng.Bernoulli(prof.SharedFrac):
			// 4-hop path: forward to the owning L1.
			t.stage = stageFwdToOwner
			owner := s.rng.Intn(s.net.Topo().Nodes())
			s.schedule(event{at: ready, kind: evSend, t: t, src: t.home, dst: owner, class: noc.ClassForward, bits: s.cfg.ControlBits})
		case s.rng.Bernoulli(s.l2MissRatio(prof)):
			// L2 miss: to memory.
			t.stage = stageReqToMem
			mcNode := s.mcs[s.rng.Intn(len(s.mcs))].node
			s.schedule(event{at: ready, kind: evSend, t: t, src: t.home, dst: mcNode, class: noc.ClassRequest, bits: s.cfg.ControlBits})
		default:
			// L2 hit: data straight back.
			t.stage = stageDataToReq
			s.schedule(event{at: ready, kind: evSend, t: t, src: t.home, dst: c.node, class: noc.ClassResponse, bits: s.cfg.DataBits})
		}

	case stageFwdToOwner:
		// Owner's L1 supplies the block: data to requester, ack to home.
		ready := now + int64(s.cfg.L1FillLatency)
		ack := s.newTxn(t.core, -1, t.home, stageAckToHome)
		s.schedule(event{at: ready, kind: evSend, t: ack, src: p.Dst, dst: t.home, class: noc.ClassAck, bits: s.cfg.ControlBits})
		t.stage = stageDataToReq
		s.schedule(event{at: ready, kind: evSend, t: t, src: p.Dst, dst: c.node, class: noc.ClassResponse, bits: s.cfg.DataBits})

	case stageReqToMem:
		m := s.mcOf[p.Dst]
		if m == nil {
			panic("cpusim: memory request at a node without a controller")
		}
		done := m.service(now, int64(s.cfg.DRAMLatency))
		t.stage = stageDataToReq
		s.schedule(event{at: done, kind: evSend, t: t, src: p.Dst, dst: c.node, class: noc.ClassResponse, bits: s.cfg.DataBits})

	case stageDataToReq:
		// Fill the L1 and complete the miss shortly after.
		s.schedule(event{at: now + int64(s.cfg.L1FillLatency), kind: evComplete, t: t})
		// Dirty evictions write back to the victim block's home.
		if s.rng.Bernoulli(c.prof.WriteFrac * 0.5) {
			wb := s.newTxn(t.core, -1, -1, stageWriteback)
			victim := s.rng.Intn(s.net.Topo().Nodes())
			q := s.net.NewPacket(c.node, victim, noc.ClassAck, s.cfg.DataBits)
			q.Payload = wb
		}

	case stageAckToHome, stageWriteback:
		// Terminal fire-and-forget messages: the record is done. The
		// delivered packet keeps a stale Payload pointer until NewPacket
		// reuses it, and nothing reads it.
		s.free = append(s.free, t)
	}
}

// l2MissRatio is the fraction of L1 misses that also miss the L2.
func (s *System) l2MissRatio(p *workload.Profile) float64 {
	if p.L1MPKI <= 0 {
		return 0
	}
	return p.L2MPKI / p.L1MPKI
}

// AfterCycle implements noc.CycleObserver: fire due events, then step the
// cores so their new packets enter NIs next cycle. System does not
// implement noc.IdleSkipper, so it vetoes idle fast-forward: cores accrue
// fractional issue credit and advance phase machines every cycle, so a
// closed-loop system never has an idle span to summarize.
func (s *System) AfterCycle(now int64) {
	for len(s.events) > 0 && s.events[0].at <= now {
		e := s.events.pop()
		switch e.kind {
		case evSend:
			p := s.net.NewPacket(e.src, e.dst, e.class, e.bits)
			p.Payload = e.t
		case evComplete:
			s.cores[e.t.core].completeMiss(e.t.missIdx)
			s.missesCompleted++
			s.free = append(s.free, e.t)
		}
	}
	for i := range s.cores {
		s.cores[i].step(now)
	}
}

// StartMeasurement snapshots per-core retired counts; IPC reports cover
// the interval since the last call.
func (s *System) StartMeasurement() {
	for i := range s.cores {
		s.baseRetired[i] = s.cores[i].retired
	}
	s.baseCycle = s.net.Now()
}

// SystemIPC returns the sum over cores of instructions per cycle since
// StartMeasurement — the quantity Figures 2 and 8 normalize.
func (s *System) SystemIPC() float64 {
	cycles := s.net.Now() - s.baseCycle
	if cycles <= 0 {
		return 0
	}
	var instr int64
	for i := range s.cores {
		instr += s.cores[i].retired - s.baseRetired[i]
	}
	return float64(instr) / float64(cycles)
}

// MissStats returns issued and completed miss transaction counts.
func (s *System) MissStats() (issued, completed int64) {
	return s.missesIssued, s.missesCompleted
}
