package noc_test

import (
	"testing"
	"testing/quick"

	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/topology"
	"github.com/catnap-noc/catnap/internal/traffic"
)

func torusConfig(rows, cols, subnets, width int) noc.Config {
	cfg := testConfig(rows, cols, subnets, width)
	cfg.Torus = true
	return cfg
}

func TestTorusValidation(t *testing.T) {
	cfg := torusConfig(4, 4, 1, 512)
	cfg.VCs = 1
	if err := cfg.Validate(); err == nil {
		t.Error("torus with 1 VC must be rejected (no dateline classes)")
	}
	cfg = torusConfig(4, 4, 1, 512)
	cfg.AppTraffic = true
	if err := cfg.Validate(); err == nil {
		t.Error("torus with AppTraffic must be rejected")
	}
}

func TestTorusTopology(t *testing.T) {
	m := topology.NewTorus(4, 4, 4, 2)
	east, west, north := int(topology.East), int(topology.West), int(topology.North)
	// Wraparound neighbours.
	if n, _, _ := m.Link(3, east); n != 0 {
		t.Errorf("east wrap from node 3 -> %d, want 0", n)
	}
	if n, _, _ := m.Link(0, west); n != 3 {
		t.Errorf("west wrap from node 0 -> %d, want 3", n)
	}
	if n, _, _ := m.Link(0, north); n != 12 {
		t.Errorf("north wrap from node 0 -> %d, want 12", n)
	}
	// Wrap detection marks exactly the dateline links.
	if !m.WrapsPort(3, east) || m.WrapsPort(2, east) {
		t.Error("X dateline misplaced")
	}
	if !m.WrapsPort(0, north) || m.WrapsPort(4, north) {
		t.Error("Y dateline misplaced")
	}
	// Ring distances: corner to corner is 1+1 on a 4x4 torus.
	if h := m.Hops(0, 15); h != 2 {
		t.Errorf("torus corner hops = %d, want 2", h)
	}
}

// TestTorusRouteProgress: shortest-direction dimension-ordered routing
// reaches every destination in exactly Hops steps.
func TestTorusRouteProgress(t *testing.T) {
	m := topology.NewTorus(8, 8, 4, 4)
	local := int(topology.Local)
	f := func(a, b uint8) bool {
		src := int(a) % m.Nodes()
		dst := int(b) % m.Nodes()
		at := src
		for steps := 0; steps < m.Hops(src, dst); steps++ {
			p := m.RoutePort(at, dst)
			if p == local {
				return false // arrived early: Hops wrong
			}
			at, _, _ = m.Link(at, p)
		}
		return at == dst && m.RoutePort(at, dst) == local
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestTorusZeroLoad: latency benefits from wraparound (max 8 hops on an
// 8x8 torus vs 14 on the mesh).
func TestTorusZeroLoad(t *testing.T) {
	cfg := torusConfig(8, 8, 1, 512)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	p := net.NewPacket(0, 63, noc.ClassSynthetic, 512)
	net.Run(100)
	if p.ArriveTime == 0 {
		t.Fatal("not delivered")
	}
	hops := int64(net.Topo().Hops(0, 63))
	if hops != 2 {
		t.Fatalf("8x8 torus corner hops = %d, want 2", hops)
	}
	if want := 4 + 3*hops; p.Latency() != want {
		t.Fatalf("latency %d, want %d", p.Latency(), want)
	}
}

// TestTorusDeadlockFreedom is the key property: sustained saturation on
// every adversarial pattern must drain completely — the dateline VC
// classes break the ring cycles that wormhole switching would otherwise
// deadlock on. (Disable the dateline logic and this test hangs.)
func TestTorusDeadlockFreedom(t *testing.T) {
	patterns := []traffic.Pattern{traffic.UniformRandom{}, traffic.Transpose{}, traffic.BitComplement{}}
	for _, pat := range patterns {
		for _, vcs := range []int{2, 4} {
			cfg := torusConfig(8, 8, 1, 512)
			cfg.VCs = vcs
			net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
			if err != nil {
				t.Fatal(err)
			}
			gen := traffic.NewGenerator(net, pat, traffic.Constant(0.9), 7)
			for i := 0; i < 3000; i++ {
				gen.Tick(net.Now())
				net.Step()
			}
			if !net.Drain(300000) {
				t.Fatalf("%s/%dVC: torus deadlocked with %d packets in flight", pat.Name(), vcs, net.InFlight())
			}
			if err := net.CheckQuiescent(); err != nil {
				t.Fatalf("%s/%dVC: %v", pat.Name(), vcs, err)
			}
		}
	}
}

// TestTorusGatedConservation: power gating composes with the torus.
func TestTorusGatedConservation(t *testing.T) {
	cfg := torusConfig(4, 4, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	net.SetGatingPolicy(core.BaselineGating{})
	sched := traffic.Piecewise(
		traffic.Phase{Until: 300, Load: 0},
		traffic.Phase{Until: 600, Load: 0.3},
		traffic.Phase{Until: 1 << 62, Load: 0},
	)
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, sched, 13)
	for i := 0; i < 1000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	if !net.Drain(200000) {
		t.Fatalf("gated torus deadlocked: %d in flight", net.InFlight())
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesReferenceScanTorus: the dateline VC classes make
// the downstream VC a packet may take depend on its ring crossings; the
// incremental path must match the reference scan bit for bit.
func TestIncrementalMatchesReferenceScanTorus(t *testing.T) {
	diffShapeArms(t, "torus", torusConfig(8, 8, 4, 128), 2500)
}

// TestTorusThroughputBeatsMesh: the torus's doubled bisection should
// saturate at a higher uniform-random load than the mesh.
func TestTorusThroughputBeatsMesh(t *testing.T) {
	run := func(torus bool) float64 {
		cfg := testConfig(8, 8, 1, 512)
		cfg.Torus = torus
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.9), 5)
		for i := 0; i < 6000; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		_, _, ejected := net.Counts()
		return float64(ejected) / 6000 / 64
	}
	mesh := run(false)
	torus := run(true)
	if torus <= mesh {
		t.Errorf("torus saturation %.3f should beat mesh %.3f", torus, mesh)
	}
}
