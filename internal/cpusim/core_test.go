package cpusim

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/workload"
)

// fakeSys builds the minimal System a Core needs: launched misses are
// recorded and can be completed manually.
type fakeMiss struct {
	core *Core
	idx  int
}

func coreFixture(t *testing.T, prof *workload.Profile) (*Core, *System, *[]fakeMiss) {
	t.Helper()
	cfg := noc.Config{
		Rows: 2, Cols: 2, TilesPerNode: 4, RegionDim: 2,
		Subnets: 1, LinkWidthBits: 512,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
	net, err := noc.New(cfg, rrStub{})
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultConfig()
	assign := make([]*workload.Profile, net.Topo().Tiles())
	for i := range assign {
		assign[i] = prof
	}
	sys, err := NewWithAssignment(net, scfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	var launched []fakeMiss
	return sys.cores[0], sys, &launched
}

type rrStub struct{}

func (rrStub) Select(now int64, node int, pkt *noc.Packet, ready []bool) int {
	for s, ok := range ready {
		if ok {
			return s
		}
	}
	return -1
}

func TestCoreNoMissesRunsAtPeak(t *testing.T) {
	prof := &workload.Profile{Name: "compute", PeakIPC: 2, BurstRatio: 1, BurstFrac: 0}
	c, _, _ := coreFixture(t, prof)
	for cyc := int64(0); cyc < 1000; cyc++ {
		c.step(cyc)
	}
	if got := c.retired; got != 2000 {
		t.Fatalf("retired %d instructions, want 2000 (peak IPC 2)", got)
	}
}

func TestCoreFractionalIPC(t *testing.T) {
	prof := &workload.Profile{Name: "slow", PeakIPC: 0.5, BurstRatio: 1}
	c, _, _ := coreFixture(t, prof)
	for cyc := int64(0); cyc < 1000; cyc++ {
		c.step(cyc)
	}
	if got := c.retired; got < 480 || got > 520 {
		t.Fatalf("retired %d, want ~500 at IPC 0.5", got)
	}
}

// TestCoreWindowStall: with misses never completing, the core must stall
// once the oldest miss slips out of the 64-entry window, having issued at
// most window+epsilon instructions past it.
func TestCoreWindowStall(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c, sys, _ := coreFixture(t, prof)
	// Run the core alone without ever stepping the network: no responses.
	for cyc := int64(0); cyc < 5000; cyc++ {
		c.step(cyc)
	}
	issued, completed := sys.MissStats()
	if completed != 0 {
		t.Fatalf("completed %d misses with no network", completed)
	}
	if issued == 0 {
		t.Fatal("no misses issued")
	}
	oldest, ok := c.oldestMiss()
	if !ok {
		t.Fatal("no outstanding miss")
	}
	if c.retired-oldest > int64(sys.cfg.WindowSize) {
		t.Fatalf("retired %d past oldest miss at %d: window (%d) not enforced",
			c.retired-oldest, oldest, sys.cfg.WindowSize)
	}
}

// TestCoreMSHRLimit: outstanding misses never exceed the MSHR count.
func TestCoreMSHRLimit(t *testing.T) {
	prof := &workload.Profile{Name: "hammer", L1MPKI: 500, L2MPKI: 0, PeakIPC: 2, BurstRatio: 1}
	c, _, _ := coreFixture(t, prof)
	for cyc := int64(0); cyc < 2000; cyc++ {
		c.step(cyc)
		if c.missCount > len(c.misses) {
			t.Fatalf("missCount %d exceeds MSHRs %d", c.missCount, len(c.misses))
		}
	}
}

// TestPhaseModulation: a bursty profile's phase machinery must preserve
// the average MPKI over long runs.
func TestPhaseModulation(t *testing.T) {
	prof := &workload.Profile{
		Name: "bursty", L1MPKI: 20, L2MPKI: 0, PeakIPC: 1,
		BurstRatio: 5, BurstFrac: 0.25,
	}
	rng := sim.NewRNG(3)
	cfg := noc.Config{
		Rows: 2, Cols: 2, TilesPerNode: 4, RegionDim: 2,
		Subnets: 1, LinkWidthBits: 512,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
	}
	net, err := noc.New(cfg, rrStub{})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]*workload.Profile, net.Topo().Tiles())
	for i := range assign {
		assign[i] = prof
	}
	sys, err := NewWithAssignment(net, DefaultConfig(), assign)
	if err != nil {
		t.Fatal(err)
	}
	_ = rng
	// Run the full closed loop long enough to average over many phases.
	net.Run(200000)
	issued, _ := sys.MissStats()
	var retired int64
	for _, c := range sys.cores {
		retired += c.retired
	}
	mpki := float64(issued) / float64(retired) * 1000
	if mpki < 15 || mpki > 25 {
		t.Errorf("realized MPKI %.1f, want ~20 (phase modulation must preserve the mean)", mpki)
	}
}

// TestMCService: channel-level parallelism and queueing.
func TestMCService(t *testing.T) {
	m := &mc{node: 0, busyUntil: make([]int64, 2)}
	// Two concurrent requests at t=0 both finish at 80.
	if d := m.service(0, 80); d != 80 {
		t.Fatalf("first request done at %d", d)
	}
	if d := m.service(0, 80); d != 80 {
		t.Fatalf("second request done at %d", d)
	}
	// The third queues behind the earliest channel.
	if d := m.service(0, 80); d != 160 {
		t.Fatalf("third request done at %d, want 160", d)
	}
	// A late request after the channels idle starts immediately.
	if d := m.service(300, 80); d != 380 {
		t.Fatalf("late request done at %d, want 380", d)
	}
	if m.requests != 4 {
		t.Fatalf("request count %d", m.requests)
	}
}

// TestCoherenceMessageClasses: a running mix must exercise all four
// protocol classes (request, forward, response, ack/writeback).
func TestCoherenceMessageClasses(t *testing.T) {
	cfg := noc.Config{
		Rows: 4, Cols: 4, TilesPerNode: 4, RegionDim: 2,
		Subnets: 1, LinkWidthBits: 512,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
	}
	net, err := noc.New(cfg, rrStub{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[noc.MsgClass]int{}
	net.AddSink(func(now int64, p *noc.Packet) { seen[p.Class]++ })
	mix, err := workload.MixByName("Heavy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, DefaultConfig(), mix); err != nil {
		t.Fatal(err)
	}
	net.Run(20000)
	for _, class := range []noc.MsgClass{noc.ClassRequest, noc.ClassForward, noc.ClassResponse, noc.ClassAck} {
		if seen[class] == 0 {
			t.Errorf("message class %v never delivered", class)
		}
	}
	// Control packets dominate in count (~60% in the paper).
	ctrl := seen[noc.ClassRequest] + seen[noc.ClassForward] + seen[noc.ClassAck]
	total := ctrl + seen[noc.ClassResponse]
	if frac := float64(ctrl) / float64(total); frac < 0.4 || frac > 0.8 {
		t.Errorf("control packet fraction %.2f, want ~0.6", frac)
	}
}

// TestDRAMShareFollowsProfile: the fraction of completed misses that go
// to DRAM must match the profile's calibration, (1-SharedFrac) of misses
// reaching the L2 and L2MPKI/L1MPKI of those missing it. The memory path
// is what throttles a system whose DRAM share drifts above this.
func TestDRAMShareFollowsProfile(t *testing.T) {
	for _, name := range []string{"mcf", "sjas", "barnes"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := noc.Config{
			Rows: 4, Cols: 4, TilesPerNode: 4, RegionDim: 2,
			Subnets: 1, LinkWidthBits: 512,
			VCs: 4, VCDepth: 4, InjQueueFlits: 16,
			RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		}
		net, err := noc.New(cfg, rrStub{})
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]*workload.Profile, net.Topo().Tiles())
		for i := range assign {
			assign[i] = prof
		}
		sys, err := NewWithAssignment(net, DefaultConfig(), assign)
		if err != nil {
			t.Fatal(err)
		}
		net.Run(15000)
		var dram int64
		for _, m := range sys.mcs {
			dram += m.requests
		}
		_, completed := sys.MissStats()
		if completed == 0 {
			t.Fatalf("%s: no misses completed", name)
		}
		got := float64(dram) / float64(completed)
		want := (1 - prof.SharedFrac) * prof.L2MPKI / prof.L1MPKI
		t.Logf("%s: DRAM share %.4f (%d of %d misses), want %.4f", name, got, dram, completed, want)
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s: DRAM share %.4f, want %.4f ± 0.02", name, got, want)
		}
	}
}
