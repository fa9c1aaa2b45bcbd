package noc_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

func fbflyConfig(rows, cols, subnets, width int) noc.Config {
	cfg := testConfig(rows, cols, subnets, width)
	cfg.FBfly = true
	return cfg
}

func TestFBflyZeroLoad(t *testing.T) {
	cfg := fbflyConfig(8, 8, 1, 512)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	p := net.NewPacket(0, 63, noc.ClassSynthetic, 512)
	net.Run(50)
	if p.ArriveTime == 0 {
		t.Fatal("not delivered")
	}
	// Two hops, same pipeline arithmetic as the mesh: 4 + 3*2 = 10.
	if want := int64(4 + 3*2); p.Latency() != want {
		t.Fatalf("fbfly corner latency = %d, want %d", p.Latency(), want)
	}
}

func TestFBflyAllPairs(t *testing.T) {
	cfg := fbflyConfig(4, 4, 2, 256)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for s := 0; s < cfg.Nodes(); s++ {
		for d := 0; d < cfg.Nodes(); d++ {
			if s != d {
				net.NewPacket(s, d, noc.ClassSynthetic, 512)
				want++
			}
		}
	}
	if !net.Drain(100000) {
		t.Fatalf("did not drain: %d in flight", net.InFlight())
	}
	if _, _, ejected := net.Counts(); int(ejected) != want {
		t.Fatalf("delivered %d of %d", ejected, want)
	}
	if err := net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestFBflyDeadlockFreedom: saturate the high-radix network on every
// pattern and drain — dimension-ordered routing on the flattened
// butterfly is acyclic, so no datelines are needed.
func TestFBflyDeadlockFreedom(t *testing.T) {
	for _, patName := range []string{"uniform-random", "transpose", "bit-complement"} {
		pat, err := traffic.PatternByName(patName)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fbflyConfig(8, 8, 1, 512)
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		gen := traffic.NewGenerator(net, pat, traffic.Constant(0.9), 3)
		for i := 0; i < 2500; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		if !net.Drain(300000) {
			t.Fatalf("%s: deadlock with %d in flight", patName, net.InFlight())
		}
		if err := net.CheckQuiescent(); err != nil {
			t.Fatalf("%s: %v", patName, err)
		}
	}
}

// TestFBflyCatnap: the full Catnap stack on the flattened butterfly —
// §8's conjecture that Multi-NoC power gating helps high-radix
// topologies too.
func TestFBflyCatnap(t *testing.T) {
	cfg := fbflyConfig(8, 8, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	det := congestion.NewDetector(net, congestion.Default(congestion.BFM))
	net.AddObserver(det)
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))

	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.03), 9)
	for i := 0; i < 5000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	share := net.SubnetFlitShare()
	if share[0] < 0.95 {
		t.Errorf("subnet 0 share %.2f at low load on fbfly", share[0])
	}
	for s := 1; s < 4; s++ {
		if a := net.Subnet(s).ActiveRouters(); a > 6 {
			t.Errorf("fbfly subnet %d: %d routers awake at low load", s, a)
		}
	}
	net.FlushCSC()
	csc, total := net.CompensatedSleepCycles()
	if pct := 100 * float64(csc) / float64(total); pct < 50 {
		t.Errorf("fbfly CSC %.1f%%, want >50%% at 0.03 load", pct)
	}
	if !net.Drain(100000) {
		t.Fatalf("did not drain: %d in flight", net.InFlight())
	}
	created, _, ejected := net.Counts()
	if created != ejected {
		t.Fatalf("conservation: %d != %d", created, ejected)
	}
}

// TestIncrementalMatchesReferenceScanFBfly: the 8x8 flattened butterfly
// (radix 15 x 4 VCs = 60 of 64 slot bits) is the widest shape the switch
// request masks handle; it must match the reference scan bit for bit.
func TestIncrementalMatchesReferenceScanFBfly(t *testing.T) {
	cfg := fbflyConfig(8, 8, 4, 128)
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	if !net.Subnet(0).Router(0).UsesRequestMasks() {
		t.Fatal("8x8 fbfly router takes the scan fallback, want the request-mask path")
	}
	diffShapeArms(t, "fbfly", cfg, 2500)
}

// TestFBflyBeatsTorusLatency: 2-hop routing should give the lowest
// zero-load latency of the three topologies.
func TestFBflyBeatsTorusLatency(t *testing.T) {
	lat := func(mut func(*noc.Config)) float64 {
		cfg := testConfig(8, 8, 1, 512)
		mut(&cfg)
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.05), 7)
		for i := 0; i < 4000; i++ {
			gen.Tick(net.Now())
			net.Step()
		}
		return net.Latency().Mean()
	}
	mesh := lat(func(c *noc.Config) {})
	torus := lat(func(c *noc.Config) { c.Torus = true })
	fbfly := lat(func(c *noc.Config) { c.FBfly = true })
	if !(fbfly < torus && torus < mesh) {
		t.Errorf("latency ordering: fbfly %.1f, torus %.1f, mesh %.1f (want ascending)", fbfly, torus, mesh)
	}
}
