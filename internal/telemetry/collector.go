package telemetry

import (
	"math/bits"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/stats"
)

// Metric names exported by the Collector. Per-subnet series carry the
// subnet index in MetricPoint.Subnet; *_cycles series are windowed sums
// of a per-cycle quantity (divide by the window for a per-cycle mean).
const (
	// MetricActiveRouterCycles is router-cycles spent PowerActive per
	// window, per subnet — the windowed power-state series behind the
	// Figure 12(a)-style plots.
	MetricActiveRouterCycles = "power.active_router_cycles"
	// MetricWakingRouterCycles is router-cycles spent PowerWaking.
	MetricWakingRouterCycles = "power.waking_router_cycles"
	// MetricAsleepRouterCycles is router-cycles spent PowerAsleep.
	MetricAsleepRouterCycles = "power.asleep_router_cycles"
	// MetricBufferedFlitCycles is flit-cycles held in router buffers per
	// window, per subnet (the occupancy the BFA metric averages).
	MetricBufferedFlitCycles = "noc.buffered_flit_cycles"
	// MetricBFMCycles is the windowed sum of the subnet's per-cycle max
	// BFM (max input-port occupancy — the paper's local congestion
	// metric).
	MetricBFMCycles = "congestion.bfm_cycles"
	// MetricInjectedFlits is flits injected into the subnet per window.
	MetricInjectedFlits = "noc.injected_flits"
	// MetricInjectedPackets / MetricEjectedPackets are network-wide
	// packet counts per window.
	MetricInjectedPackets = "noc.injected_packets"
	MetricEjectedPackets  = "noc.ejected_packets"
	// MetricNIQueueFlitCycles is flit-cycles held in the bounded NI
	// injection queues per window, network-wide (the IQOcc input).
	MetricNIQueueFlitCycles = "ni.queue_flit_cycles"
	// MetricLeakageSavedPJ is the leakage energy (pJ) avoided by sleep
	// per window, per subnet — derived at export from the asleep-router
	// series and the leakage rate set with SetLeakRate, so it costs
	// nothing per cycle. Absent when no rate was set.
	MetricLeakageSavedPJ = "power.leakage_saved_pj"

	// Counters (whole-run totals, Cycle -1 in exports).
	MetricSleeps        = "power.sleeps"
	MetricWakesLookAhd  = "power.wakes.look_ahead"
	MetricWakesNI       = "power.wakes.ni"
	MetricWakesPolicy   = "power.wakes.policy"
	MetricLCSOn         = "congestion.lcs_on"
	MetricLCSOff        = "congestion.lcs_off"
	MetricRCSToggles    = "congestion.rcs_toggles"
	MetricCyclesSampled = "sim.cycles_sampled"
)

// Collector instruments one network. It implements three hook
// interfaces:
//
//   - noc.CycleObserver: samples settled per-cycle state (power-state
//     counts, buffer occupancy, throughput deltas) into windowed series;
//   - noc.PowerTracer: turns router sleep/wake transitions into events
//     and counters;
//   - congestion.Tracer: turns LCS/RCS transitions into events.
//
// The split makes telemetry independent of observer registration order:
// transitions are pushed by the component that made them (the router's
// power phase, the detector's own AfterCycle), while the collector's
// AfterCycle only reads state that is stable once the cycle's phases
// have run. Registering the collector before or after the congestion
// detector therefore yields identical output (asserted by
// TestObserverOrderIndependence).
type Collector struct {
	net   *noc.Network
	log   *Log
	reg   *Registry
	label string

	last    int64 // last cycle sampled (for Finish)
	sampled bool
	leakPJ  float64 // pJ leaked per router-cycle, 0 = no energy series

	// Per-subnet series, indexed by subnet.
	active   []*stats.Series
	waking   []*stats.Series
	asleep   []*stats.Series
	buffered []*stats.Series
	bfm      []*stats.Series
	injFlits []*stats.Series

	// Network-wide series.
	injPkts *stats.Series
	ejPkts  *stats.Series
	niQueue *stats.Series

	// Previous cumulative values for windowed deltas.
	prevFlits []int64
	prevInj   int64
	prevEj    int64

	// Transition counters (atomic: see Counter).
	cSleeps     *Counter
	cWakeLookA  *Counter
	cWakeNI     *Counter
	cWakePolicy *Counter
	cLCSOn      *Counter
	cLCSOff     *Counter
	cRCSToggle  *Counter
	cCycles     *Counter
}

// NewCollector builds a collector over net with the given series window
// and shared event log. It does not attach anything; Recorder.Attach
// (or the caller) wires it into the network and detector.
func NewCollector(net *noc.Network, window int64, log *Log, label string) *Collector {
	if window <= 0 {
		window = 50
	}
	subnets := net.Subnets()
	c := &Collector{
		net:   net,
		log:   log,
		reg:   NewRegistry(label),
		label: label,

		active:   make([]*stats.Series, subnets),
		waking:   make([]*stats.Series, subnets),
		asleep:   make([]*stats.Series, subnets),
		buffered: make([]*stats.Series, subnets),
		bfm:      make([]*stats.Series, subnets),
		injFlits: make([]*stats.Series, subnets),

		prevFlits: make([]int64, subnets),
	}
	c.cSleeps = c.reg.Counter(MetricSleeps, -1)
	c.cWakeLookA = c.reg.Counter(MetricWakesLookAhd, -1)
	c.cWakeNI = c.reg.Counter(MetricWakesNI, -1)
	c.cWakePolicy = c.reg.Counter(MetricWakesPolicy, -1)
	c.cLCSOn = c.reg.Counter(MetricLCSOn, -1)
	c.cLCSOff = c.reg.Counter(MetricLCSOff, -1)
	c.cRCSToggle = c.reg.Counter(MetricRCSToggles, -1)
	c.cCycles = c.reg.Counter(MetricCyclesSampled, -1)
	for s := 0; s < subnets; s++ {
		c.active[s] = c.reg.Series(MetricActiveRouterCycles, s, window)
		c.waking[s] = c.reg.Series(MetricWakingRouterCycles, s, window)
		c.asleep[s] = c.reg.Series(MetricAsleepRouterCycles, s, window)
		c.buffered[s] = c.reg.Series(MetricBufferedFlitCycles, s, window)
		c.bfm[s] = c.reg.Series(MetricBFMCycles, s, window)
		c.injFlits[s] = c.reg.Series(MetricInjectedFlits, s, window)
	}
	c.injPkts = c.reg.Series(MetricInjectedPackets, -1, window)
	c.ejPkts = c.reg.Series(MetricEjectedPackets, -1, window)
	c.niQueue = c.reg.Series(MetricNIQueueFlitCycles, -1, window)
	return c
}

// SetLeakRate supplies the per-router-cycle leakage energy in pJ
// (power.Model.RouterLeakPJ); Points then derives the windowed
// power.leakage_saved_pj series from the asleep-router series.
// Simulator.EnableTelemetry calls this with its model's rate.
func (c *Collector) SetLeakRate(pjPerRouterCycle float64) { c.leakPJ = pjPerRouterCycle }

// AfterCycle implements noc.CycleObserver: it samples the settled end-
// of-cycle state into the windowed series.
func (c *Collector) AfterCycle(now int64) {
	c.last = now
	c.sampled = true
	c.cCycles.Add(1)

	for s := 0; s < len(c.active); s++ {
		sub := c.net.Subnet(s)
		a, w, z := sub.PowerStates()
		c.active[s].Add(now, float64(a))
		c.waking[s].Add(now, float64(w))
		c.asleep[s].Add(now, float64(z))
		buffered, bfm := occupancy(sub)
		c.buffered[s].Add(now, float64(buffered))
		c.bfm[s].Add(now, float64(bfm))
	}

	c.niQueue.Add(now, float64(queuedFlits(c.net)))
	for s, f := range c.net.FlitsPerSubnet() {
		c.injFlits[s].Add(now, float64(f-c.prevFlits[s]))
		c.prevFlits[s] = f
	}

	_, injected, ejected := c.net.Counts()
	c.injPkts.Add(now, float64(injected-c.prevInj))
	c.prevInj = injected
	c.ejPkts.Add(now, float64(ejected-c.prevEj))
	c.prevEj = ejected
}

// occupancy returns the flits buffered in sub and its largest router BFM
// (max input-port occupancy), walking only the occupied routers.
func occupancy(sub *noc.Subnet) (buffered, bfm int) {
	for i, w := range sub.OccupiedBits() {
		for w != 0 {
			r := sub.Router(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			buffered += r.TotalOccupancy()
			bfm = max(bfm, r.MaxPortOccupancy())
		}
	}
	return buffered, bfm
}

// queuedFlits returns the flits held in net's bounded NI injection
// queues, walking only the NIs whose queue is nonempty.
func queuedFlits(net *noc.Network) int {
	q := 0
	for i, w := range net.NIQueuedBits() {
		for w != 0 {
			q += net.NI(i<<6 + bits.TrailingZeros64(w)).QueueOccupancyFlits()
			w &= w - 1
		}
	}
	return q
}

// NextIdleEvent implements noc.IdleSkipper: the collector never bounds a
// skip — every quantity it samples is constant over a quiescent span.
func (c *Collector) NextIdleEvent(now int64) (int64, bool) {
	return noc.SkipHorizon, true
}

// SkipIdle implements noc.IdleSkipper: it accounts for the AfterCycle
// samples the skipped span [from, to) would have taken. Over a quiescent
// span the power-state counts are the only nonzero samples (no packet
// exists, so occupancy, queue, and delta samples are all zero), and a
// zero sample is already exact under the series' lazy window close — the
// next Add or Finish closes the crossed windows with the identical
// accumulator — so only the power-state series need explicit AddSpan
// patching, plus the sampled-cycle counter and clock.
func (c *Collector) SkipIdle(from, to int64) {
	c.last = to - 1
	c.sampled = true
	c.cCycles.Add(to - from)
	for s := 0; s < len(c.active); s++ {
		a, w, z := c.net.Subnet(s).PowerStates()
		c.active[s].AddSpan(from, to, float64(a))
		c.waking[s].AddSpan(from, to, float64(w))
		c.asleep[s].AddSpan(from, to, float64(z))
	}
}

// RouterSlept implements noc.PowerTracer.
func (c *Collector) RouterSlept(now int64, subnet, node int, idle int64) {
	c.cSleeps.Add(1)
	c.log.Append(Event{
		Cycle: now, Type: EventRouterSleep, Subnet: subnet, Node: node,
		Cause: "idle-detect", Idle: idle,
	})
}

// RouterWoke implements noc.PowerTracer.
func (c *Collector) RouterWoke(now int64, subnet, node int, cause noc.WakeCause, slept int64) {
	switch cause {
	case noc.WakeLookAhead:
		c.cWakeLookA.Add(1)
	case noc.WakeNI:
		c.cWakeNI.Add(1)
	default:
		c.cWakePolicy.Add(1)
	}
	c.log.Append(Event{
		Cycle: now, Type: EventRouterWake, Subnet: subnet, Node: node,
		Cause: cause.String(), Slept: slept,
	})
}

// LCSChanged implements congestion.Tracer.
func (c *Collector) LCSChanged(now int64, subnet, node int, on bool) {
	t := EventCongestionOn
	if on {
		c.cLCSOn.Add(1)
	} else {
		c.cLCSOff.Add(1)
		t = EventCongestionOff
	}
	c.log.Append(Event{Cycle: now, Type: t, Subnet: subnet, Node: node})
}

// RCSChanged implements congestion.Tracer. Node carries the region
// index.
func (c *Collector) RCSChanged(now int64, subnet, region int, on bool) {
	c.cRCSToggle.Add(1)
	t := EventRCSOn
	if !on {
		t = EventRCSOff
	}
	c.log.Append(Event{Cycle: now, Type: t, Subnet: subnet, Node: region})
}

// Finish closes every trailing series window. Safe to call more than
// once; Points may be read afterwards.
func (c *Collector) Finish() {
	if c.sampled {
		c.reg.finish(c.last)
	}
}

// Points exports the collector's instruments, plus the derived
// per-subnet leakage-savings series when a leak rate is set. Call
// Finish first (or use Recorder.Metrics, which does).
func (c *Collector) Points() []MetricPoint {
	pts := c.reg.Points()
	if c.leakPJ > 0 {
		for s, ser := range c.asleep {
			for _, p := range ser.Points() {
				pts = append(pts, MetricPoint{
					Metric: MetricLeakageSavedPJ, Label: c.label, Subnet: s,
					Cycle: p.Cycle, Value: p.Value * c.leakPJ,
				})
			}
		}
	}
	return pts
}
