// Package congestion implements the congestion-detection machinery of
// paper §3.2.1 and §3.4: the five local congestion metrics (BFM, BFA, IR,
// IQOcc, Delay), set/clear hysteresis for the local congestion status
// (LCS), and the regional congestion status (RCS) — a 1-bit OR network per
// subnet per 4×4 region, latched every 6 cycles to model the SPICE-derived
// H-tree propagation delay.
package congestion

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/catnap-noc/catnap/internal/noc"
)

// MetricKind enumerates the local congestion metrics evaluated in §3.4.
type MetricKind int

// The local congestion metrics the paper compares. BFM is Catnap's final
// choice; the others are the alternatives §3.4 explains the failures of.
const (
	// BFM is the maximum buffer occupancy over a local router's input
	// ports, in flits. Its key property: the congestion threshold is
	// independent of the traffic pattern.
	BFM MetricKind = iota
	// BFA is the average buffer occupancy over the input ports. It under-
	// reports congestion concentrated on a few paths.
	BFA
	// IR is the node's packet injection rate over a sampling window. Its
	// usable threshold varies wildly with traffic pattern (Figure 13).
	IR
	// IQOcc is the NI injection-queue occupancy in flits. It reacts too
	// slowly: injection queues fill only after router buffers fill.
	IQOcc
	// Delay is the sampled average blocking delay per flit at the local
	// router. Performs like BFM but is costlier to implement in hardware.
	Delay
)

// ValidKind reports whether k names a known metric.
func ValidKind(k MetricKind) bool { return k >= BFM && k <= Delay }

// KindByName resolves a metric by its paper name ("BFM", "BFA", "IR",
// "IQOcc", "Delay"); the error lists the valid names.
func KindByName(name string) (MetricKind, error) {
	for k := BFM; k <= Delay; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("congestion: unknown metric %q (valid: %s)", name, KindNames())
}

// KindNames returns the space-separated list of metric names in kind
// order, for error messages and CLI usage text.
func KindNames() string {
	names := make([]string, 0, int(Delay)+1)
	for k := BFM; k <= Delay; k++ {
		names = append(names, k.String())
	}
	return strings.Join(names, " ")
}

// String returns the paper's name for the metric.
func (k MetricKind) String() string {
	switch k {
	case BFM:
		return "BFM"
	case BFA:
		return "BFA"
	case IR:
		return "IR"
	case IQOcc:
		return "IQOcc"
	case Delay:
		return "Delay"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Thresholds. The paper tuned each metric's threshold empirically for its
// router ("we extensively experimented with many different thresholds")
// and reports BFM 9, BFA 2, Delay 1.5, IQOcc 4 for 16-flit input ports.
// The same tuning pass against this simulator's router (whose buffers
// fill later for the same offered load, because of its credit round-trip
// and pipeline timing) lands the BFM operating point at 6 flits: that
// value reproduces the paper's Light/Heavy CSC, power, and performance
// numbers simultaneously, where 9 over-packs the lower subnets. The
// paper's value is kept available as PaperBFMThreshold.
const (
	// DefaultBFMThreshold is the BFM set-threshold tuned for this router
	// model (see the comment above).
	DefaultBFMThreshold = 6
	// PaperBFMThreshold is the value the paper reports for its router.
	PaperBFMThreshold = 9
	// DefaultDelayThreshold is the blocking-delay threshold (cycles)
	// tuned for this router model: at the paper's 1.5 the windowed metric
	// reacts too late here and oversubscribes lower subnets at moderate
	// load; 1.0 restores the paper's "Delay performs like BFM".
	DefaultDelayThreshold = 1.0
	// PaperDelayThreshold is the value the paper reports.
	PaperDelayThreshold = 1.5
)

// Detector timing, fixed for every metric.
const (
	// RCSPeriod is the OR-network latch period in cycles (6 from SPICE).
	RCSPeriod = 6
	// holdCycles keeps the LCS set for at least this long after the last
	// cycle the metric exceeded the threshold ("once a subnet is declared
	// congested, it remains in that status for a few cycles").
	holdCycles = 8
	// windowCycles is the sampling window of the rate-based metrics (IR,
	// Delay).
	windowCycles = 64
)

// Config parameterizes a Detector. The zero value of every field but
// Metric is the paper's configuration: the metric's default threshold and
// regional detection on.
type Config struct {
	// Metric selects the local congestion metric.
	Metric MetricKind
	// MetricThreshold is the set-threshold in the metric's native unit
	// (flits, packets/node/cycle, or cycles); a value that is not
	// positive selects DefaultThreshold(Metric). The LCS sets above it
	// and clears below it once holdCycles have passed.
	MetricThreshold float64
	// LocalOnly disables regional detection (the OR network), modelling
	// the BFM-local / IQOcc-local variants of Figure 11, where a node
	// sees only its own router's status.
	LocalOnly bool
}

// DefaultThreshold returns the best-performing threshold for the metric
// on this router model: BFM 6 flits (the paper's 9 re-tuned, see above),
// BFA 2 flits, Delay 1.0 cycles (the paper's 1.5 re-tuned), IQOcc 4
// flits. IR has no single good threshold, which is the point of Figure
// 13; its default is the middle of that sweep, so set the threshold
// explicitly when using IR.
func DefaultThreshold(kind MetricKind) float64 {
	switch kind {
	case BFM:
		return DefaultBFMThreshold
	case BFA:
		return 2
	case IQOcc:
		return 4
	case Delay:
		return DefaultDelayThreshold
	case IR:
		return 0.12
	}
	return 0
}

// Detector computes per-(subnet, node) local congestion status and
// per-(subnet, region) regional congestion status every cycle. Register it
// as a noc.CycleObserver; policies then query Congested/LCS/RCS.
// Tracer observes congestion-status transitions as the detector latches
// them. The hooks fire only when a status actually changes — never per
// cycle — and every call is guarded behind a nil check, so an unset
// tracer is free. The callbacks run inside the detector's AfterCycle,
// which makes the stream independent of where any other observer sits in
// the network's observer list.
type Tracer interface {
	// LCSChanged fires when (subnet, node)'s local congestion status
	// flips to on.
	LCSChanged(now int64, subnet, node int, on bool)
	// RCSChanged fires when (subnet, region)'s latched regional status
	// toggles.
	RCSChanged(now int64, subnet, region int, on bool)
}

type Detector struct {
	cfg    Config
	net    *noc.Network
	rcsE   *RCSEnergy
	tracer Tracer

	subnets int
	nodes   int
	regions int
	// radix is the topology's router port count, over which BFA averages.
	radix float64

	lastHot []int64 // last cycle the raw metric exceeded MetricThreshold
	rcs     []bool  // [subnet*regions + region], latched every RCSPeriod

	// lcsBits[s] holds subnet s's local congestion status as a bitmap
	// over node ids, read and written on both stepping paths.
	lcsBits [][]uint64
	// hotBits[s] marks nodes whose windowed rate (IR, Delay) currently
	// exceeds MetricThreshold; rebuilt at each window close, constant between.
	hotBits [][]uint64
	// epoch counts LCS/RCS changes; gating policies expose it as their
	// decision epoch so the power phase can skip steady-state routers.
	epoch uint64

	// Window state for IR and Delay.
	winStart     int64
	prevInjected []int64 // per node (IR), packets
	prevBlocked  []int64 // per (subnet,node) (Delay)
	prevGranted  []int64
	rate         []float64 // latest windowed value per (subnet,node)

	// nodeRegion caches the region of each node.
	nodeRegion []int
	orScratch  []bool
}

// RCSEnergy counts OR-network activity for the power model: latch
// operations and output toggles (each toggle costs the SPICE-measured
// switching energy, 8.7 pJ in the paper).
type RCSEnergy struct {
	Latches int64
	Toggles int64
}

// NewDetector builds a detector over net with cfg. A threshold that is not
// positive falls back to DefaultThreshold. Like noc.New, it is a thin
// shell over Reset, so a reset detector and a fresh one run identical
// construction code.
func NewDetector(net *noc.Network, cfg Config) *Detector {
	d := &Detector{rcsE: &RCSEnergy{}}
	d.Reset(net, cfg)
	return d
}

// Reset rewinds the detector in place to the state NewDetector(net, cfg)
// would produce, reusing every shape-compatible slab. The installed
// tracer is cleared (callers re-install hooks after a reset, exactly as
// after construction); the RCSEnergy counter struct is retained with its
// counts zeroed. net may be the same network after its own Reset, or a
// different one.
func (d *Detector) Reset(net *noc.Network, cfg Config) {
	if !(cfg.MetricThreshold > 0) {
		cfg.MetricThreshold = DefaultThreshold(cfg.Metric)
	}

	mesh := net.Topo()
	d.cfg = cfg
	d.net = net
	*d.rcsE = RCSEnergy{}
	d.tracer = nil
	d.subnets = net.Subnets()
	d.nodes = mesh.Nodes()
	d.regions = mesh.Regions()
	d.radix = float64(mesh.Radix())

	d.lastHot = resetSlice(d.lastHot, d.subnets*d.nodes)
	for i := range d.lastHot {
		d.lastHot[i] = -1 << 62
	}
	d.rcs = resetSlice(d.rcs, d.subnets*d.regions)
	d.epoch = 0
	d.winStart = 0
	d.prevInjected = resetSlice(d.prevInjected, d.nodes)
	d.prevBlocked = resetSlice(d.prevBlocked, d.subnets*d.nodes)
	d.prevGranted = resetSlice(d.prevGranted, d.subnets*d.nodes)
	d.rate = resetSlice(d.rate, d.subnets*d.nodes)
	d.nodeRegion = resetSlice(d.nodeRegion, d.nodes)
	for n := 0; n < d.nodes; n++ {
		d.nodeRegion[n] = mesh.Region(n)
	}
	words := (d.nodes + 63) / 64
	if cap(d.lcsBits) >= d.subnets {
		d.lcsBits = d.lcsBits[:d.subnets]
		d.hotBits = d.hotBits[:d.subnets]
	} else {
		grownL := make([][]uint64, d.subnets)
		copy(grownL, d.lcsBits)
		d.lcsBits = grownL
		grownH := make([][]uint64, d.subnets)
		copy(grownH, d.hotBits)
		d.hotBits = grownH
	}
	for s := range d.lcsBits {
		d.lcsBits[s] = resetSlice(d.lcsBits[s], words)
		d.hotBits[s] = resetSlice(d.hotBits[s], words)
	}
	d.orScratch = resetSlice(d.orScratch, d.regions)
}

// resetSlice returns s resized to n elements with every element zeroed,
// reusing the backing array when it is large enough (the congestion-side
// twin of the noc package's helper).
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s) // bulk typed memclr: one barrier sweep, not one per element
	return s
}

// Epoch returns a counter that changes on every LCS or RCS transition.
// Gating policies whose answers are pure functions of detector state
// return it as their noc.GatingPolicy.PolicyEpoch.
func (d *Detector) Epoch() uint64 { return d.epoch }

// SetTracer installs (or, with nil, removes) the congestion-transition
// tracer.
func (d *Detector) SetTracer(t Tracer) { d.tracer = t }

// Energy returns the OR-network activity counters.
func (d *Detector) Energy() *RCSEnergy { return d.rcsE }

// LCS returns the local congestion status of (subnet, node).
func (d *Detector) LCS(subnet, node int) bool {
	return d.lcsBits[subnet][node>>6]&(1<<(uint(node)&63)) != 0
}

// RCS returns the latched regional congestion status of (subnet, region).
func (d *Detector) RCS(subnet, region int) bool {
	return d.rcs[subnet*d.regions+region]
}

// RCSAtNode returns the latched regional status of the region containing
// node. With LocalOnly set it falls back to the node's own LCS, which is
// exactly the BFM-local / IQOcc-local behaviour of Figure 11.
func (d *Detector) RCSAtNode(subnet, node int) bool {
	if d.cfg.LocalOnly {
		return d.LCS(subnet, node)
	}
	return d.RCS(subnet, d.nodeRegion[node])
}

// Congested reports whether node's NI should treat subnet as congested:
// its own LCS is set, or (with regional detection) the region's RCS is.
func (d *Detector) Congested(subnet, node int) bool {
	if d.LCS(subnet, node) {
		return true
	}
	if !d.cfg.LocalOnly {
		return d.rcs[subnet*d.regions+d.nodeRegion[node]]
	}
	return false
}

// AfterCycle implements noc.CycleObserver: it refreshes every LCS from the
// configured metric and latches the OR network on its period. The fast
// path visits only candidate nodes — those whose raw metric can be
// nonzero this cycle (occupied routers, nonempty NI queues, or a hot
// windowed rate) plus those whose LCS is set and may need clearing. Every
// skipped node would have sampled zero against a positive threshold
// with its LCS already clear: a no-op in the reference scan too, so the
// latched sequences are identical.
func (d *Detector) AfterCycle(now int64) {
	windowEnd := now-d.winStart >= windowCycles
	if windowEnd {
		d.closeWindow(now)
		d.winStart = now
	}

	if d.net.ReferenceScan() {
		for s := 0; s < d.subnets; s++ {
			for n := 0; n < d.nodes; n++ {
				d.updateLCS(now, s, n, d.sampleScan(s, n))
			}
		}
	} else {
		for s := 0; s < d.subnets; s++ {
			var cand []uint64
			switch d.cfg.Metric {
			case BFM, BFA:
				cand = d.net.Subnet(s).OccupiedBits()
			case IQOcc:
				cand = d.net.NIQueuedBits()
			case IR, Delay:
				cand = d.hotBits[s]
			default:
				panic("congestion: unknown metric")
			}
			lb := d.lcsBits[s]
			for i := range lb {
				w := cand[i] | lb[i]
				for w != 0 {
					n := i<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					d.updateLCS(now, s, n, d.sample(s, n))
				}
			}
		}
	}

	if !d.cfg.LocalOnly && now%RCSPeriod == 0 {
		d.latchRCS(now)
	}
}

// NextIdleEvent implements noc.IdleSkipper. The detector can summarize a
// skipped span only when its per-cycle work is provably a no-op repeated:
// every LCS, RCS, and hot-rate bit clear (a set status can transition on
// any upcoming cycle via hysteresis or latching — no skip until it
// clears), and, for the windowed metrics, no counter movement pending
// against the previous window snapshots (a pending delta makes the next
// window close compute nonzero rates, so the skip is bounded to end at
// that close). The reference scan vetoes outright: it does real work
// every cycle by design.
func (d *Detector) NextIdleEvent(now int64) (int64, bool) {
	if d.net.ReferenceScan() {
		return 0, false
	}
	for s := 0; s < d.subnets; s++ {
		for _, w := range d.lcsBits[s] {
			if w != 0 {
				return now, true
			}
		}
		for _, w := range d.hotBits[s] {
			if w != 0 {
				return now, true
			}
		}
	}
	for _, on := range d.rcs {
		if on {
			return now, true
		}
	}
	if (d.cfg.Metric == IR || d.cfg.Metric == Delay) && !d.windowDeltasZero() {
		return d.winStart + windowCycles, true
	}
	return noc.SkipHorizon, true
}

// windowDeltasZero reports whether the windowed metrics' source counters
// sit exactly at the previous window snapshots, i.e. the next window close
// would compute all-zero rates.
func (d *Detector) windowDeltasZero() bool {
	switch d.cfg.Metric {
	case IR:
		for n := 0; n < d.nodes; n++ {
			if d.net.NI(n).PacketsInjected != d.prevInjected[n] {
				return false
			}
		}
	case Delay:
		for s := 0; s < d.subnets; s++ {
			for n := 0; n < d.nodes; n++ {
				idx := s*d.nodes + n
				blocked, granted := d.net.Subnet(s).Router(n).BlockingCounters()
				if blocked != d.prevBlocked[idx] || granted != d.prevGranted[idx] {
					return false
				}
			}
		}
	}
	return true
}

// SkipIdle implements noc.IdleSkipper: it accounts for the AfterCycle
// calls the span [from, to) would have made under the idle conditions
// NextIdleEvent verified. Window closes inside the span saw all-zero
// deltas (rates become 0, hot bits stay empty, snapshots stay put), so
// only the window clock, the rates, and the unconditional RCS latch count
// need patching; no LCS/RCS/epoch movement was possible.
func (d *Detector) SkipIdle(from, to int64) {
	if closes := (to - 1 - d.winStart) / windowCycles; closes > 0 {
		d.winStart += closes * windowCycles
		if d.cfg.Metric == IR || d.cfg.Metric == Delay {
			for i := range d.rate {
				d.rate[i] = 0
			}
		}
	}
	if !d.cfg.LocalOnly {
		// Latches fire at every multiple of RCSPeriod regardless of state;
		// count the multiples inside [from, to).
		const p = RCSPeriod
		d.rcsE.Latches += (to+p-1)/p - (from+p-1)/p
	}
}

// updateLCS applies one node's set/clear-with-hysteresis step given its
// raw metric sample — the shared per-node body of both sampling paths.
func (d *Detector) updateLCS(now int64, s, n int, raw float64) {
	idx := s*d.nodes + n
	on := d.LCS(s, n)
	if raw > d.cfg.MetricThreshold {
		if !on {
			if d.tracer != nil {
				d.tracer.LCSChanged(now, s, n, true)
			}
			d.lcsBits[s][n>>6] |= 1 << (uint(n) & 63)
			d.epoch++
		}
		d.lastHot[idx] = now
	} else if on && raw < d.cfg.MetricThreshold && now-d.lastHot[idx] >= holdCycles {
		d.lcsBits[s][n>>6] &^= 1 << (uint(n) & 63)
		d.epoch++
		if d.tracer != nil {
			d.tracer.LCSChanged(now, s, n, false)
		}
	}
}

// sample returns the raw metric value for (subnet, node) this cycle.
func (d *Detector) sample(subnet, node int) float64 {
	switch d.cfg.Metric {
	case BFM:
		return float64(d.net.Subnet(subnet).Router(node).MaxPortOccupancy())
	case BFA:
		r := d.net.Subnet(subnet).Router(node)
		return float64(r.TotalOccupancy()) / d.radix
	case IQOcc:
		return float64(d.net.NI(node).QueueOccupancyFlits())
	case IR, Delay:
		return d.rate[subnet*d.nodes+node]
	default:
		panic("congestion: unknown metric")
	}
}

// sampleScan is sample for the reference path: the occupancy metrics
// rescan the router's ports instead of reading the maintained counters.
func (d *Detector) sampleScan(subnet, node int) float64 {
	switch d.cfg.Metric {
	case BFM:
		return float64(d.net.Subnet(subnet).Router(node).MaxPortOccupancyScan())
	case BFA:
		r := d.net.Subnet(subnet).Router(node)
		return float64(r.TotalOccupancyScan()) / d.radix
	default:
		return d.sample(subnet, node)
	}
}

// closeWindow recomputes the windowed metrics (IR, Delay) from counter
// deltas over the window just ended.
func (d *Detector) closeWindow(now int64) {
	w := float64(now - d.winStart)
	if w <= 0 {
		return
	}
	switch d.cfg.Metric {
	case IR:
		for n := 0; n < d.nodes; n++ {
			cur := d.net.NI(n).PacketsInjected
			r := float64(cur-d.prevInjected[n]) / w
			d.prevInjected[n] = cur
			for s := 0; s < d.subnets; s++ {
				d.rate[s*d.nodes+n] = r
			}
		}
	case Delay:
		for s := 0; s < d.subnets; s++ {
			for n := 0; n < d.nodes; n++ {
				idx := s*d.nodes + n
				blocked, granted := d.net.Subnet(s).Router(n).BlockingCounters()
				db := blocked - d.prevBlocked[idx]
				dg := granted - d.prevGranted[idx]
				d.prevBlocked[idx] = blocked
				d.prevGranted[idx] = granted
				if dg > 0 {
					d.rate[idx] = float64(db) / float64(dg)
				} else if db > 0 {
					// Flits blocked all window with none granted: fully
					// congested.
					d.rate[idx] = d.cfg.MetricThreshold + 1
				} else {
					d.rate[idx] = 0
				}
			}
		}
	default:
		return // occupancy metrics have no window state
	}
	// Refresh the hot-node candidate bitmaps; the rates just computed stay
	// constant until the next window close.
	for s := 0; s < d.subnets; s++ {
		hb := d.hotBits[s]
		for i := range hb {
			hb[i] = 0
		}
		for n := 0; n < d.nodes; n++ {
			if d.rate[s*d.nodes+n] > d.cfg.MetricThreshold {
				hb[n>>6] |= 1 << (uint(n) & 63)
			}
		}
	}
}

// latchRCS recomputes every region's OR output from current LCS values.
// The fast path ORs over the set-LCS bitmap instead of scanning every
// node; the result is the same OR.
func (d *Detector) latchRCS(now int64) {
	d.rcsE.Latches++
	for s := 0; s < d.subnets; s++ {
		regionOr := d.orScratch
		for i := range regionOr {
			regionOr[i] = false
		}
		if d.net.ReferenceScan() {
			for n := 0; n < d.nodes; n++ {
				if d.LCS(s, n) {
					regionOr[d.nodeRegion[n]] = true
				}
			}
		} else {
			for i, w := range d.lcsBits[s] {
				for w != 0 {
					n := i<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					regionOr[d.nodeRegion[n]] = true
				}
			}
		}
		for rg := 0; rg < d.regions; rg++ {
			idx := s*d.regions + rg
			if d.rcs[idx] != regionOr[rg] {
				d.rcsE.Toggles++
				d.rcs[idx] = regionOr[rg]
				d.epoch++
				if d.tracer != nil {
					d.tracer.RCSChanged(now, s, rg, regionOr[rg])
				}
			}
		}
	}
}
