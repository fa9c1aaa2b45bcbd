package noc

// SubnetSelector chooses the subnetwork a packet at the head of a node's
// injection queue is transmitted on. Implementations include the Catnap
// strict-priority policy, round-robin, random, and the threshold-based
// alternatives of paper §3.4; they live in internal/core so the substrate
// stays policy-free.
//
// ready[s] reports whether subnet s's injection channel at this node can
// accept a new packet this cycle (it is not mid-way through streaming
// another packet). The selector returns the chosen subnet, or -1 to hold
// the packet this cycle (e.g. the only acceptable subnet is busy).
type SubnetSelector interface {
	Select(now int64, node int, pkt *Packet, ready []bool) int
}

// GatingPolicy decides when routers may sleep and when sleeping routers
// should proactively wake. The router mechanics (wake-up latency, pinned
// in-flight flits, idle counting) live in the substrate; the policy only
// answers the two questions of the paper's Figure 5 state machine.
//
// A nil GatingPolicy on the Network disables power gating entirely: all
// routers stay active forever (the non-PG baselines).
//
// Stepping is sequential, so AllowSleep and WantWake run on the goroutine
// calling Network.Step; implementations need no locking of their own.
type GatingPolicy interface {
	// AllowSleep reports whether the router (subnet, node), whose buffers
	// have been continuously empty for idleCycles cycles, may switch off
	// at cycle now. The substrate has already established that no flit is
	// in flight toward the router.
	AllowSleep(now int64, subnet, node int, idleCycles int64) bool

	// WantWake reports whether the sleeping router (subnet, node) should
	// be proactively woken at cycle now (Catnap wakes subnet h when the
	// regional congestion status of subnet h−1 turns on). Baseline
	// policies return false and rely on look-ahead/NI wakeup signals.
	WantWake(now int64, subnet, node int) bool
}

// EpochedPolicy is an optional interface a GatingPolicy may implement to
// let the power phase skip steady-state routers. PolicyEpoch returns a
// counter that must change whenever any AllowSleep or WantWake answer may
// have changed; between equal epochs both answers must be pure functions
// of (subnet, node) — independent of now and idleCycles. The substrate
// then re-evaluates sleeping and sleep-blocked routers only when the
// epoch moves (plus one poll right after each sleep), instead of polling
// every router every cycle; the observable decision sequence is identical
// because the skipped calls could only have repeated the previous answer.
// Policies whose answers vary with time must not implement this; they are
// polled every cycle as before.
type EpochedPolicy interface {
	PolicyEpoch() uint64
}

// CycleObserver is invoked once per simulated cycle after all network
// state has settled (phase 2 of the two-phase cycle). The congestion
// detection machinery registers as an observer to sample buffer occupancy
// and latch the OR-network; the system model uses one to advance cores.
type CycleObserver interface {
	AfterCycle(now int64)
}

// WakeCause identifies what triggered a sleeping router's wake-up, for
// telemetry. The substrate has three wake mechanisms (paper §3.3): the
// look-ahead signal carried by an approaching head flit, the NI signal a
// node raises when it holds traffic for a gated local router, and the
// proactive policy wake-up (Catnap wakes subnet h when subnet h−1's
// regional congestion status turns on).
type WakeCause uint8

// Wake-up causes, in the order the substrate checks them.
const (
	// WakeLookAhead is the look-ahead wake-up: a head flit routed toward
	// the sleeping router (including the re-assert for a flit already
	// blocked behind it).
	WakeLookAhead WakeCause = iota
	// WakeNI is the network-interface wake-up: the local NI holds a
	// packet for the gated router and nothing hides the latency.
	WakeNI
	// WakePolicy is the proactive policy wake-up (GatingPolicy.WantWake).
	WakePolicy
)

// String returns the cause name used in telemetry events.
//
//catnap:hotpath
func (c WakeCause) String() string {
	switch c {
	case WakeLookAhead:
		return "look-ahead"
	case WakeNI:
		return "ni"
	case WakePolicy:
		return "policy"
	default:
		return "invalid"
	}
}

// PowerTracer observes router power-state transitions as they happen.
// The hooks fire only on actual transitions (Active→Asleep and
// Asleep→Waking), never per cycle, and the network guards every call
// behind a nil check — an unset tracer costs one pointer compare per
// transition. Stepping is sequential, so the callbacks run on the
// goroutine calling Network.Step, in a deterministic order.
type PowerTracer interface {
	// RouterSlept fires when (subnet, node) gates off at cycle now after
	// idle continuously-empty cycles (the T-idle-detect trigger).
	RouterSlept(now int64, subnet, node int, idle int64)
	// RouterWoke fires when the sleeping (subnet, node) starts its wake-up
	// at cycle now, with the cause and the length of the sleep period it
	// ends.
	RouterWoke(now int64, subnet, node int, cause WakeCause, slept int64)
}

// PowerEvents accumulates the switching-activity counts the power model
// converts to dynamic energy, and the state-residency counts it converts
// to leakage. One PowerEvents is kept per subnet so the model can apply
// per-subnet width/voltage scaling.
type PowerEvents struct {
	// BufferWrites and BufferReads count flit buffer accesses.
	BufferWrites, BufferReads int64
	// XbarTraversals counts flits crossing a router crossbar.
	XbarTraversals int64
	// LinkTraversals counts flits crossing an inter-router link.
	LinkTraversals int64
	// NIFlits counts flits crossing the network interface (inject+eject).
	NIFlits int64
	// ArbiterOps counts switch-allocation grant operations.
	ArbiterOps int64
	// ActiveRouterCycles counts router-cycles spent in the active or
	// wake-up state (leakage and clock power accrue).
	ActiveRouterCycles int64
	// SleepRouterCycles counts router-cycles spent power-gated.
	SleepRouterCycles int64
	// GatingTransitions counts completed sleep periods; each costs the
	// energy equivalent of TBreakeven cycles of router leakage.
	GatingTransitions int64
	// WakeupSignals counts wake-up signal transmissions.
	WakeupSignals int64
}

// Sub subtracts other from e, turning two cumulative snapshots into a
// measurement-window delta.
func (e *PowerEvents) Sub(other *PowerEvents) {
	e.BufferWrites -= other.BufferWrites
	e.BufferReads -= other.BufferReads
	e.XbarTraversals -= other.XbarTraversals
	e.LinkTraversals -= other.LinkTraversals
	e.NIFlits -= other.NIFlits
	e.ArbiterOps -= other.ArbiterOps
	e.ActiveRouterCycles -= other.ActiveRouterCycles
	e.SleepRouterCycles -= other.SleepRouterCycles
	e.GatingTransitions -= other.GatingTransitions
	e.WakeupSignals -= other.WakeupSignals
}

// Add accumulates other into e.
//
//catnap:hotpath
func (e *PowerEvents) Add(other *PowerEvents) {
	e.BufferWrites += other.BufferWrites
	e.BufferReads += other.BufferReads
	e.XbarTraversals += other.XbarTraversals
	e.LinkTraversals += other.LinkTraversals
	e.NIFlits += other.NIFlits
	e.ArbiterOps += other.ArbiterOps
	e.ActiveRouterCycles += other.ActiveRouterCycles
	e.SleepRouterCycles += other.SleepRouterCycles
	e.GatingTransitions += other.GatingTransitions
	e.WakeupSignals += other.WakeupSignals
}
