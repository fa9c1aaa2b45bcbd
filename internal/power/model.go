package power

import (
	"fmt"

	"github.com/catnap-noc/catnap/internal/noc"
)

// Model evaluates network power for one network configuration. Build one
// per network with NewModel; it is immutable and safe to share.
type Model struct {
	p Params

	subnets int
	width   float64 // per-subnet datapath width, bits
	nodes   int
	vcs     int
	vcDepth int
	volt    float64
	linkFac float64
}

// NewModel builds a power model for the given network configuration at
// supply voltage volt. The Multi-NoC link layout factor applies
// automatically when cfg has more than one subnet.
func NewModel(p Params, cfg *noc.Config, volt float64) *Model {
	m := &Model{
		p:       p,
		subnets: cfg.Subnets,
		width:   float64(cfg.LinkWidthBits),
		nodes:   cfg.Nodes(),
		vcs:     cfg.VCs,
		vcDepth: cfg.VCDepth,
		volt:    volt,
		linkFac: 1,
	}
	if cfg.Subnets > 1 {
		m.linkFac = p.MultiNoCLinkFactor
	}
	return m
}

// w returns the width scaling factor W/RefWidth.
func (m *Model) w() float64 { return m.width / m.p.RefWidth }

// bufferBitsPerRouter returns the register-FIFO bit count of one router:
// 5 ports × VCs × depth × flit width. Aggregate buffer bits are constant
// across the paper's configurations by construction (flits shrink as
// subnets multiply).
func (m *Model) bufferBitsPerRouter() float64 {
	return 5 * float64(m.vcs) * float64(m.vcDepth) * m.width
}

// RouterLeakPJ returns one router's leakage energy per cycle in pJ,
// including its share of link and clock leakage, at the model's voltage.
// This is also the unit the gating transition cost is quoted in
// (T-breakeven cycles of it per transition).
func (m *Model) RouterLeakPJ() float64 {
	p := &m.p
	w := m.w()
	leak := float64(p.LBufPerBit*m.bufferBitsPerRouter()) +
		float64(p.LXbar*w*w) +
		p.LCtrl +
		p.LClkFixed + float64(p.LClkPerWidth*w) +
		float64(p.LLink*w*m.linkFac)
	return leak * p.leakScale(m.volt)
}

// NILeakPJ returns one node's NI leakage per cycle in pJ. The NI is shared
// by the node's tiles and sized to the aggregate width, so it is identical
// across bandwidth-equivalent configurations.
func (m *Model) NILeakPJ() float64 {
	agg := m.width * float64(m.subnets) / m.p.RefWidth
	return m.p.LNI * agg * m.p.leakScale(m.volt)
}

// StaticPower returns the network's leakage power in watts with every
// router active (no power gating).
func (m *Model) StaticPower() float64 {
	perCyclePJ := float64(m.RouterLeakPJ()*float64(m.nodes*m.subnets)) + float64(m.NILeakPJ()*float64(m.nodes))
	return perCyclePJ * 1e-12 * m.p.FreqHz
}

// Breakdown is a network power report in watts, split the way Figure 7
// stacks it, plus the static/dynamic split Figure 8 uses.
type Breakdown struct {
	Buffer, Crossbar, Control, Clock, Link, NI float64

	// Static is leakage actually paid (reduced by sleep cycles); Gating is
	// the energy overhead of sleep-transistor switching and the OR
	// network, folded into Total.
	Static float64
	Gating float64
	// Dynamic is the sum of the six component dynamic powers.
	Dynamic float64
	// Total = Static + Dynamic + Gating.
	Total float64
}

// String formats the breakdown like the paper's figures discuss it.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.1fW (dyn=%.1f static=%.1f gating=%.2f | buf=%.1f xbar=%.1f ctrl=%.1f clk=%.1f link=%.1f ni=%.1f)",
		b.Total, b.Dynamic, b.Static, b.Gating, b.Buffer, b.Crossbar, b.Control, b.Clock, b.Link, b.NI)
}

// Measure converts a simulation's switching activity into average power
// over the measured interval. events must aggregate every subnet (use
// Network.Events), cycles is the interval length, and orToggles is the
// congestion OR-network's toggle count (0 when detection is off).
//
// Static power is charged per router-cycle of the active and waking
// states; sleeping router-cycles pay nothing, but each completed gating
// transition pays T-breakeven cycles of router leakage — so a sleep period
// shorter than break-even *costs* energy, exactly the trade the paper's
// CSC metric captures.
func (m *Model) Measure(events noc.PowerEvents, cycles int64, tBreakeven int, orToggles int64) Breakdown {
	if cycles <= 0 {
		return Breakdown{}
	}
	p := &m.p
	w := m.w()
	dyn := p.dynScale(m.volt)
	toW := 1e-12 * p.FreqHz / float64(cycles) // pJ-per-interval → watts

	var b Breakdown
	// Each switch-allocation grant reads a buffer, arbitrates and crosses
	// the crossbar once (noc.PowerEvents.XbarTraversals).
	b.Buffer = float64(float64(events.BufferWrites)*p.EBufWrite*w*dyn*toW) +
		float64(float64(events.XbarTraversals)*p.EBufRead*w*dyn*toW)
	b.Crossbar = float64(float64(events.XbarTraversals) * p.EXbar * w * w * dyn * toW)
	b.Control = float64(float64(events.XbarTraversals) * p.EArb * dyn * toW)
	b.Clock = float64(float64(events.ActiveRouterCycles) * (p.EClkFixed + float64(p.EClkPerWidth*w)) * dyn * toW)
	b.Link = float64(float64(events.LinkTraversals) * p.ELink * w * m.linkFac * dyn * toW)
	b.NI = float64(float64(events.NIFlits) * p.ENI * w * dyn * toW)
	b.Dynamic = b.Buffer + b.Crossbar + b.Control + b.Clock + b.Link + b.NI

	routerLeak := m.RouterLeakPJ()
	b.Static = float64(float64(events.ActiveRouterCycles)*routerLeak*toW) +
		float64(m.NILeakPJ()*float64(m.nodes)*float64(cycles)*toW)

	b.Gating = float64(float64(events.GatingTransitions)*float64(tBreakeven)*routerLeak*toW) +
		float64(float64(orToggles)*p.ORNetSwitchPJ*toW)

	b.Total = b.Dynamic + b.Static + b.Gating
	return b
}

// AnalyticLoadPoint computes the Figure 7 operating point without a
// simulation: every router port carries loadFactor flits per cycle, every
// router is active, and each flit-hop performs one buffer write+read, one
// crossbar and one link (or NI) traversal. switching is the bit switching
// factor (0.15 in §4.2) applied to datapath components.
func (m *Model) AnalyticLoadPoint(loadFactor, switching float64) Breakdown {
	p := &m.p
	w := m.w()
	dyn := p.dynScale(m.volt) * (switching / 0.15) // constants calibrated at 0.15
	routers := float64(m.nodes * m.subnets)
	flitHopsPerCycle := loadFactor * 5 * routers // 5 ports each way
	meshShare := 4.0 / 5.0                       // 4 of 5 ports are links, 1 is NI
	toW := 1e-12 * p.FreqHz

	var b Breakdown
	b.Buffer = float64(flitHopsPerCycle * (p.EBufWrite + p.EBufRead) * w * dyn * toW)
	b.Crossbar = float64(flitHopsPerCycle * p.EXbar * w * w * dyn * toW)
	b.Control = float64(flitHopsPerCycle * p.EArb * dyn * toW)
	b.Clock = float64(routers * (p.EClkFixed + float64(p.EClkPerWidth*w)) * p.dynScale(m.volt) * toW)
	b.Link = float64(flitHopsPerCycle * meshShare * p.ELink * w * m.linkFac * dyn * toW)
	// The compiler turns the doubling into an addition that a product
	// could fuse into, so the product before it is rounded too.
	b.NI = float64(float64(flitHopsPerCycle*(1-meshShare)) * 2 * p.ENI * w * dyn * toW)
	b.Dynamic = b.Buffer + b.Crossbar + b.Control + b.Clock + b.Link + b.NI
	b.Static = m.StaticPower()
	b.Total = b.Dynamic + b.Static
	return b
}
