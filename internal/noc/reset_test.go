package noc_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// The reset differential suite pins the zero-rebuild property: a network
// that has already simulated traffic — possibly under a different shape —
// and is then rewound with Network.Reset must reproduce a fresh New
// network bit for bit: same per-cycle state hashes, same deliveries and
// latency distribution, same power events, same transition order. The
// fingerprint machinery is shared with the reference-scan differentials
// (differential_test.go).

// dirtyReset builds a network, runs it under warmCfg traffic long enough
// to populate every wheel, queue, freelist, and detector window, then
// Resets it to cfg and returns it — exactly the reuse path SimPool.Get
// exercises.
func dirtyReset(t *testing.T, warmCfg, cfg noc.Config, warmCycles int) *noc.Network {
	t.Helper()
	net, err := noc.New(warmCfg, core.NewRRSelector(warmCfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	net.SetGatingPolicy(core.BaselineGating{})
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.2), 5)
	for i := 0; i < warmCycles; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if err := net.Reset(cfg, core.NewRRSelector(cfg.Nodes())); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestResetMatchesFreshNetwork is the core reset differential: for every
// gating flavor, a dirtied-then-Reset network must retrace a fresh
// network's run exactly, including the order of sleep/wake/LCS/RCS
// transitions.
func TestResetMatchesFreshNetwork(t *testing.T) {
	const cycles = 2000
	cfg := testConfig(8, 8, 4, 128)
	for _, gating := range []string{"catnap", "opaque", "baseline", "none"} {
		fresh := diffRunWith(t, diffOpts{gating: gating, sched: traffic.Fig12Bursts(), cycles: cycles})
		reused := diffRunWith(t, diffOpts{
			net:    dirtyReset(t, cfg, cfg, 700),
			gating: gating, sched: traffic.Fig12Bursts(), cycles: cycles,
		})
		compareFingerprints(t, gating+"/reset", fresh, reused)
	}
}

// TestResetMatchesFreshExecModes repeats the reset differential across
// the execution modes New defaults do not cover: idle fast-forward and
// the reference scan. Reset must also rewind a network whose previous run
// used a different exec mode (Reset returns the network to the New
// default before the scenario re-applies its own mode).
func TestResetMatchesFreshExecModes(t *testing.T) {
	const cycles = 2000
	cfg := testConfig(8, 8, 4, 128)
	modes := []struct {
		name string
		o    diffOpts
	}{
		{"skip", diffOpts{skip: true}},
		{"reference-scan", diffOpts{ref: true}},
	}
	for _, m := range modes {
		o := m.o
		o.gating, o.sched, o.cycles = "catnap", traffic.Fig12Bursts(), cycles
		fresh := diffRunWith(t, o)

		net := dirtyModeReset(t, cfg, cfg, 700)
		ro := o
		ro.net = net
		reused := diffRunWith(t, ro)
		compareFingerprints(t, "reset/"+m.name, fresh, reused)
	}
}

// dirtyModeReset dirties the network under a non-default execution mode
// (reference scan with packet recycling) before the Reset, so the reset
// path has a scan-maintained idle-streak representation and a warmed
// packet freelist to rewind.
func dirtyModeReset(t *testing.T, warmCfg, cfg noc.Config, warmCycles int) *noc.Network {
	t.Helper()
	net, err := noc.New(warmCfg, core.NewRRSelector(warmCfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	net.SetGatingPolicy(core.BaselineGating{})
	net.SetExecMode(noc.ExecMode{ReferenceScan: true, PacketRecycling: true})
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.25), 11)
	for i := 0; i < warmCycles; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if err := net.Reset(cfg, core.NewRRSelector(cfg.Nodes())); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestResetHeterogeneousShapes drives one network through back-to-back
// heterogeneous configurations — different mesh shape, subnet count, and
// link width, the way a design sweep's worker pool does — and checks each
// leg against a fresh network of that shape. The slab reuse must survive
// both growth (4x4 -> 8x8) and shrinkage (8x8 -> 4x4).
func TestResetHeterogeneousShapes(t *testing.T) {
	const cycles = 1500
	small := testConfig(4, 4, 2, 64)
	big := testConfig(8, 8, 4, 128)

	// Grow: dirty at 4x4/2 subnets, reset to 8x8/4.
	freshBig := diffRunWith(t, diffOpts{gating: "catnap", sched: traffic.Constant(0.15), cycles: cycles})
	grown := diffRunWith(t, diffOpts{
		net:    dirtyReset(t, small, big, 600),
		gating: "catnap", sched: traffic.Constant(0.15), cycles: cycles,
	})
	compareFingerprints(t, "reset/grow", freshBig, grown)

	// Shrink: dirty at 8x8/4 under a non-default exec mode, reset to 4x4/2.
	shrunkNet := dirtyModeReset(t, big, small, 600)
	shrunk := runSmall(t, shrunkNet, cycles)
	freshNet, err := noc.New(small, core.NewRRSelector(small.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	freshSmall := runSmall(t, freshNet, cycles)
	compareFingerprints(t, "reset/shrink", freshSmall, shrunk)
}

// runSmall fingerprints a catnap-gated constant-load run on net using the
// shared differential scenario machinery.
func runSmall(t *testing.T, net *noc.Network, cycles int) diffFingerprint {
	t.Helper()
	return diffRunWith(t, diffOpts{net: net, gating: "catnap", sched: traffic.Constant(0.2), cycles: cycles})
}

// TestResetRepeatedReuse resets one network many times in a row — the
// steady state of a sweep worker — asserting the Nth reuse is still
// identical to the first. Catching drift that accumulates across resets
// (rather than appearing on the first one) is the point.
func TestResetRepeatedReuse(t *testing.T) {
	const cycles = 1200
	cfg := testConfig(8, 8, 4, 128)
	fresh := diffRunWith(t, diffOpts{gating: "catnap", sched: traffic.Constant(0.12), cycles: cycles})
	net := dirtyReset(t, cfg, cfg, 400)
	for rep := 0; rep < 4; rep++ {
		if rep > 0 {
			if err := net.Reset(cfg, core.NewRRSelector(cfg.Nodes())); err != nil {
				t.Fatal(err)
			}
		}
		got := diffRunWith(t, diffOpts{net: net, gating: "catnap", sched: traffic.Constant(0.12), cycles: cycles})
		compareFingerprints(t, "reset/repeat", fresh, got)
	}
}

// TestResetRejectsInvalidConfig checks Reset validates before mutating:
// an invalid config must error out.
func TestResetRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig(4, 4, 2, 64)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Subnets = 0
	if err := net.Reset(bad, core.NewRRSelector(bad.Nodes())); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if err := net.Reset(cfg, nil); err == nil {
		t.Fatal("Reset accepted a nil selector")
	}
}
