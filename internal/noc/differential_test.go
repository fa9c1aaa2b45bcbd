package noc_test

import (
	"slices"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// The differential tests pin the tentpole property of the O(active)
// stepping path: the incremental work-list implementation must be
// bit-identical to the retained reference scan — same deliveries, same
// latency distribution, same power events and transition traces, same
// congestion decisions — under every gating flavor.

// diffEvent is one power or congestion transition, as seen by tracers.
type diffEvent struct {
	cycle        int64
	kind         int8 // 0 slept, 1 woke, 2 lcs, 3 rcs
	subnet, node int
	aux          int64 // idle (slept), slept (woke), on/off (lcs, rcs)
	cause        noc.WakeCause
}

// diffTracer records transitions in the order the stepper emits them.
type diffTracer struct {
	events []diffEvent
}

func (t *diffTracer) RouterSlept(now int64, subnet, node int, idle int64) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 0, subnet: subnet, node: node, aux: idle})
}

func (t *diffTracer) RouterWoke(now int64, subnet, node int, cause noc.WakeCause, slept int64) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 1, subnet: subnet, node: node, aux: slept, cause: cause})
}

func (t *diffTracer) LCSChanged(now int64, subnet, node int, on bool) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 2, subnet: subnet, node: node, aux: b2i(on)})
}

func (t *diffTracer) RCSChanged(now int64, subnet, region int, on bool) {
	t.events = append(t.events, diffEvent{cycle: now, kind: 3, subnet: subnet, node: region, aux: b2i(on)})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// churnGating wraps a policy and returns a fresh epoch on every call, the
// way a policy whose answers vary with time must: the incremental power
// phase then re-polls every sleeping and sleep-blocked router each cycle.
type churnGating struct {
	noc.GatingPolicy
	epoch uint64
}

func (c *churnGating) PolicyEpoch() uint64 {
	c.epoch++
	return c.epoch
}

// diffFingerprint is everything one run exposes to comparison.
type diffFingerprint struct {
	cycleHash []uint64 // rolling per-cycle hash of sampled aggregates
	events    []diffEvent
	ejected   int64
	latMean   float64
	latP50    int64
	latP99    int64
	powEvents noc.PowerEvents
	csc       int64
	flits     []int64
	skipped   int64 // cycles fast-forwarded; not compared, asserted per-test
}

// diffProbe samples settled per-cycle state into a rolling hash, and (on
// the incremental arm) cross-checks every aggregate against its scan.
type diffProbe struct {
	t     *testing.T
	net   *noc.Network
	hash  uint64
	out   *[]uint64
	check bool
}

func (p *diffProbe) AfterCycle(now int64) {
	h := p.hash
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for s := 0; s < p.net.Subnets(); s++ {
		sub := p.net.Subnet(s)
		a, w, z := sub.PowerStates()
		mix(uint64(a)<<32 | uint64(w)<<16 | uint64(z))
		// Arbitration outcomes: switch allocation's visit order decides
		// which eligible flits count as blocked, so the summed counters
		// pin it cycle by cycle, not only through the Delay metric.
		var blocked, granted int64
		var buffered, bfm int
		for n := 0; n < p.net.Config().Nodes(); n++ {
			r := sub.Router(n)
			b, g := r.BlockingCounters()
			blocked += b
			granted += g
			buffered += r.TotalOccupancy()
			bfm = max(bfm, r.MaxPortOccupancy())
		}
		mix(uint64(buffered))
		mix(uint64(bfm))
		mix(uint64(blocked))
		mix(uint64(granted))
	}
	queued := 0
	for n := 0; n < p.net.Config().Nodes(); n++ {
		queued += p.net.NI(n).QueueOccupancyFlits()
	}
	mix(uint64(queued))
	mix(uint64(p.net.InFlight()))
	p.hash = h
	*p.out = append(*p.out, h)

	if p.check && now%97 == 0 {
		p.scanCheck(now)
	}
}

// NextIdleEvent implements noc.IdleSkipper: the probe never bounds a
// skip, because SkipIdle replays its per-cycle sampling exactly.
func (p *diffProbe) NextIdleEvent(now int64) (int64, bool) { return noc.SkipHorizon, true }

// SkipIdle replays AfterCycle for every skipped cycle. The sampled
// aggregates are constant across a quiescent span, so the replay emits
// the exact hash stream the stepped reference produces — which is what
// lets the skip differentials compare per-cycle state, not just totals.
func (p *diffProbe) SkipIdle(from, to int64) {
	for c := from; c < to; c++ {
		p.AfterCycle(c)
	}
}

// scanCheck cross-checks every incremental aggregate against its O(nodes)
// scan counterpart.
func (p *diffProbe) scanCheck(now int64) {
	for s := 0; s < p.net.Subnets(); s++ {
		sub := p.net.Subnet(s)
		a, w, z := sub.PowerStates()
		as, ws, zs := sub.PowerStatesScan()
		if a != as || w != ws || z != zs {
			p.t.Fatalf("cycle %d subnet %d: PowerStates (%d,%d,%d) != scan (%d,%d,%d)", now, s, a, w, z, as, ws, zs)
		}
		if msg := sub.CheckAggregates(now); msg != "" {
			p.t.Fatalf("cycle %d subnet %d: %s", now, s, msg)
		}
		for n := 0; n < p.net.Config().Nodes(); n++ {
			r := sub.Router(n)
			if r.TotalOccupancy() != r.TotalOccupancyScan() || r.MaxPortOccupancy() != r.MaxPortOccupancyScan() {
				p.t.Fatalf("cycle %d subnet %d router %d: occupancy counters drifted from scan", now, s, n)
			}
		}
	}
}

// diffOpts parameterizes one differential run. drainAt lists cycles at
// which the run calls Network.Drain with drainBudget as its deadline — on
// a quiescent network the deadline then lands inside what the skipping
// arm would fast-forward over.
type diffOpts struct {
	// net, when non-nil, runs the scenario on this network instead of
	// building a fresh one — the reset differential suite passes a
	// previously used, Reset network here to prove reuse is bit-identical.
	net         *noc.Network
	gating      string
	ref         bool // select the reference scan before the first Step
	skip        bool // attempt idle fast-forward before every Step
	sched       traffic.Schedule
	cycles      int
	drainAt     []int
	drainBudget int64
}

// diffRun executes the full stack for cycles and fingerprints it.
func diffRun(t *testing.T, gating string, ref bool, sched traffic.Schedule, cycles int) diffFingerprint {
	t.Helper()
	return diffRunWith(t, diffOpts{gating: gating, ref: ref, sched: sched, cycles: cycles})
}

func diffRunWith(t *testing.T, o diffOpts) diffFingerprint {
	t.Helper()
	net := o.net
	if net == nil {
		cfg := testConfig(8, 8, 4, 128)
		var err error
		net, err = noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := net.Config()
	tr := &diffTracer{}
	net.SetPowerTracer(tr)

	switch o.gating {
	case "catnap", "churn":
		det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
		det.SetTracer(tr)
		net.AddObserver(det)
		net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
		if o.gating == "catnap" {
			net.SetGatingPolicy(core.NewCatnapGating(det))
		} else {
			net.SetGatingPolicy(&churnGating{GatingPolicy: core.NewCatnapGating(det)})
		}
	case "baseline":
		net.SetGatingPolicy(core.BaselineGating{})
	case "none":
	default:
		t.Fatalf("unknown gating flavor %q", o.gating)
	}

	fp := diffFingerprint{}
	probe := &diffProbe{t: t, net: net, out: &fp.cycleHash, check: !o.ref && !o.skip}
	net.AddObserver(probe)
	net.SetReferenceScan(o.ref)

	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, o.sched, 99)
	drainAt := append([]int(nil), o.drainAt...)
	end := int64(o.cycles)
	for net.Now() < end {
		now := net.Now()
		if len(drainAt) > 0 && int64(drainAt[0]) <= now {
			drainAt = drainAt[1:]
			net.Drain(o.drainBudget)
			continue // re-read the clock: Drain steps the network itself
		}
		if o.skip {
			// Mirror Simulator.trySkip: bound the jump by the run deadline,
			// the next pending drain call, and the generator's next
			// injection cycle, then let the network and its observers
			// bound it further.
			target := end
			if len(drainAt) > 0 && int64(drainAt[0]) < target {
				target = int64(drainAt[0])
			}
			if at, ok := gen.NextArrival(now); ok && at < target {
				target = at
			}
			if k := net.TrySkipIdle(target); k > 0 {
				fp.skipped += k
				continue
			}
		}
		gen.Tick(net.Now())
		net.Step()
	}

	_, _, fp.ejected = net.Counts()
	fp.latMean = net.Latency().Mean()
	fp.latP50 = net.Latency().Percentile(50)
	fp.latP99 = net.Latency().Percentile(99)
	fp.powEvents = net.Events()
	fp.csc, _ = net.CompensatedSleepCycles()
	fp.flits = slices.Clone(net.FlitsPerSubnet())
	fp.events = tr.events
	return fp
}

// compareFingerprints fails the test on the first divergence between a
// reference-scan run and an incremental run, including the exact order of
// every power and congestion transition.
func compareFingerprints(t *testing.T, name string, ref, fast diffFingerprint) {
	t.Helper()
	if len(ref.cycleHash) != len(fast.cycleHash) {
		t.Fatalf("%s: cycle hash lengths differ", name)
	}
	for i := range ref.cycleHash {
		if ref.cycleHash[i] != fast.cycleHash[i] {
			t.Fatalf("%s: per-cycle state diverges first at cycle %d", name, i)
		}
	}
	if ref.ejected != fast.ejected || ref.ejected == 0 {
		t.Errorf("%s: ejected ref %d vs fast %d", name, ref.ejected, fast.ejected)
	}
	if ref.latMean != fast.latMean || ref.latP50 != fast.latP50 || ref.latP99 != fast.latP99 {
		t.Errorf("%s: latency distribution diverged (mean %v vs %v, p50 %d vs %d, p99 %d vs %d)",
			name, ref.latMean, fast.latMean, ref.latP50, fast.latP50, ref.latP99, fast.latP99)
	}
	if ref.powEvents != fast.powEvents {
		t.Errorf("%s: power events diverge\nref:  %+v\nfast: %+v", name, ref.powEvents, fast.powEvents)
	}
	if ref.csc != fast.csc {
		t.Errorf("%s: CSC ref %d vs fast %d", name, ref.csc, fast.csc)
	}
	for s := range ref.flits {
		if ref.flits[s] != fast.flits[s] {
			t.Errorf("%s: subnet %d flits ref %d vs fast %d", name, s, ref.flits[s], fast.flits[s])
		}
	}
	if len(ref.events) != len(fast.events) {
		t.Fatalf("%s: transition counts differ: ref %d vs fast %d", name, len(ref.events), len(fast.events))
	}
	for i := range ref.events {
		if ref.events[i] != fast.events[i] {
			t.Fatalf("%s: transition %d diverges: ref %+v vs fast %+v", name, i, ref.events[i], fast.events[i])
		}
	}
}

// TestIncrementalMatchesReferenceScan is the tentpole differential: for
// every gating flavor (Catnap, baseline, and no gating), the incremental
// O(active) path must reproduce the reference scan bit for bit, including
// the exact order of sleep/wake/LCS/RCS transitions.
func TestIncrementalMatchesReferenceScan(t *testing.T) {
	const cycles = 3000
	for _, gating := range []string{"catnap", "baseline", "none"} {
		ref := diffRun(t, gating, true, traffic.Fig12Bursts(), cycles)
		fast := diffRun(t, gating, false, traffic.Fig12Bursts(), cycles)
		compareFingerprints(t, gating+"/bursty", ref, fast)
	}
}

// TestIncrementalMatchesReferenceScanLoads covers the load extremes: the
// sleep-dominated low-load region (long idle streaks, epoch-skipped
// polls) and a saturated run (dense occupancy, congestion churn).
func TestIncrementalMatchesReferenceScanLoads(t *testing.T) {
	const cycles = 2500
	for _, load := range []float64{0.02, 0.35} {
		ref := diffRun(t, "catnap", true, traffic.Constant(load), cycles)
		fast := diffRun(t, "catnap", false, traffic.Constant(load), cycles)
		compareFingerprints(t, "catnap/load", ref, fast)
	}
}

// diffShapeArms runs the reference-scan differential on networks built
// from cfg: a saturated arm (dense occupancy, every output contended) and
// a bursty arm (sleep/wake churn), both under full Catnap gating.
func diffShapeArms(t *testing.T, name string, cfg noc.Config, cycles int) {
	t.Helper()
	for _, arm := range []struct {
		name  string
		sched traffic.Schedule
	}{{"saturation", traffic.Constant(0.45)}, {"bursty", traffic.Fig12Bursts()}} {
		run := func(ref bool) diffFingerprint {
			net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
			if err != nil {
				t.Fatal(err)
			}
			return diffRunWith(t, diffOpts{net: net, gating: "catnap", ref: ref, sched: arm.sched, cycles: cycles})
		}
		compareFingerprints(t, name+"/"+arm.name, run(true), run(false))
	}
}

// TestIncrementalScanFallbackMatchesReference covers the shapes the
// request masks do not: more than 64 port×VC slots, and more than 16
// ports. Both take the scan fallback and must still match the reference.
func TestIncrementalScanFallbackMatchesReference(t *testing.T) {
	wide := fbflyConfig(8, 8, 2, 256)
	wide.VCs = 5 // radix 15 x 5 VCs = 75 slots
	highRadix := fbflyConfig(9, 9, 2, 256)
	highRadix.VCs = 2 // radix 17, 34 slots
	for _, c := range []struct {
		name string
		cfg  noc.Config
	}{{"fbfly-75-slots", wide}, {"fbfly-radix-17", highRadix}} {
		net, err := noc.New(c.cfg, core.NewRRSelector(c.cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		if net.Subnet(0).Router(0).UsesRequestMasks() {
			t.Fatalf("%s: router takes the request-mask path, want the scan fallback", c.name)
		}
		diffShapeArms(t, c.name, c.cfg, 1500)
	}
}

// TestDrainedQuiescenceIncremental drains a gated run on the incremental
// path and checks the full quiescence invariant, which now includes the
// incremental aggregates matching their scans.
func TestDrainedQuiescenceIncremental(t *testing.T) {
	cfg := testConfig(8, 8, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.15), 7)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if !net.Drain(20000) {
		t.Fatal("network failed to drain")
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
