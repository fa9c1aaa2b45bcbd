package cpusim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/workload"
)

// coreFixture returns the first core of a coreSystem running prof.
func coreFixture(t *testing.T, prof *workload.Profile) (*Core, *System) {
	t.Helper()
	sys := coreSystem(t, prof, DefaultConfig().Seed)
	return &sys.cores[0], sys
}

// coreSystem builds a system on a 2x2 mesh whose every core runs prof,
// seeded with seed. Its network is never stepped, so no miss completes
// unless a test completes it.
func coreSystem(t *testing.T, prof *workload.Profile, seed uint64) *System {
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
	scfg.Seed = seed
	assign := make([]*workload.Profile, net.Topo().Tiles())
	for i := range assign {
		assign[i] = prof
	}
	sys, err := NewWithAssignment(net, scfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	return sys
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
	c, _ := coreFixture(t, prof)
	for cyc := int64(0); cyc < 1000; cyc++ {
		c.step(cyc)
	}
	if got := c.retired; got != 2000 {
		t.Fatalf("retired %d instructions, want 2000 (peak IPC 2)", got)
	}
}

func TestCoreFractionalIPC(t *testing.T) {
	prof := &workload.Profile{Name: "slow", PeakIPC: 0.5, BurstRatio: 1}
	c, _ := coreFixture(t, prof)
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
	c, sys := coreFixture(t, prof)
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
	if c.missCount == 0 {
		t.Fatal("no outstanding miss")
	}
	oldest := c.oldest
	if head := c.misses[c.missHead]; head.done || head.instrNo != oldest {
		t.Fatalf("cached oldest miss %d, ring head %+v", oldest, head)
	}
	if c.retired-oldest > int64(sys.cfg.WindowSize) {
		t.Fatalf("retired %d past oldest miss at %d: window (%d) not enforced",
			c.retired-oldest, oldest, sys.cfg.WindowSize)
	}
}

// TestCoreMSHRLimit: outstanding misses never exceed the MSHR count.
func TestCoreMSHRLimit(t *testing.T) {
	prof := &workload.Profile{Name: "hammer", L1MPKI: 500, L2MPKI: 0, PeakIPC: 2, BurstRatio: 1}
	c, _ := coreFixture(t, prof)
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
	for i := range sys.cores {
		retired += sys.cores[i].retired
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

// refStep is the per-instruction core step that Core.step's run issue
// replaced, kept as its reference: one instruction per loop turn, and the
// oldest miss read from the ring, popping done entries, on every turn.
func refStep(c *Core, now int64) {
	if now >= c.phaseEnds {
		c.inBurst = !c.inBurst
		if c.inBurst {
			c.activeMPKI = c.mpkiHi
		} else {
			c.activeMPKI = c.mpkiLo
		}
		c.phaseEnds = now + c.drawPhaseLen()
	}

	c.issueCredit += c.prof.PeakIPC
	for c.issueCredit >= 1 {
		if oldest, ok := refOldestMiss(c); ok {
			if c.retired-oldest >= int64(c.sys.cfg.WindowSize) {
				if c.issueCredit > c.prof.PeakIPC {
					c.issueCredit = c.prof.PeakIPC
				}
				return
			}
		}
		c.issueCredit--
		c.retired++
		c.instrToMiss--
		if c.instrToMiss <= 0 {
			c.drawNextMiss()
			if c.missCount == len(c.misses) {
				c.retired--
				c.issueCredit++
				c.instrToMiss = 1
				return
			}
			idx := (c.missHead + c.missCount) % len(c.misses)
			c.misses[idx] = missRecord{instrNo: c.retired}
			c.missCount++
			c.sys.launchMiss(now, c, idx)
		}
	}
}

// refOldestMiss pops the done entries off the head of the ring and
// returns the oldest incomplete miss, as the reference step reads it.
func refOldestMiss(c *Core) (int64, bool) {
	for c.missCount > 0 && c.misses[c.missHead].done {
		c.missHead = (c.missHead + 1) % len(c.misses)
		c.missCount--
	}
	if c.missCount == 0 {
		return 0, false
	}
	return c.misses[c.missHead].instrNo, true
}

// outstanding returns the ring's window with the done entries at its
// head skipped, without popping them: the reference pops them lazily, on
// its next turn, and the run-issuing core at completion.
func outstanding(c *Core) (head, count int) {
	head, count = c.missHead, c.missCount
	for count > 0 && c.misses[head].done {
		head = (head + 1) % len(c.misses)
		count--
	}
	return head, count
}

// diffCores returns the first difference between the reference core ref
// and the run-issuing core run, or "".
func diffCores(ref, run *Core) string {
	rh, rc := outstanding(ref)
	switch {
	case ref.retired != run.retired:
		return fmt.Sprintf("retired %d, run issue %d", ref.retired, run.retired)
	case ref.instrToMiss != run.instrToMiss:
		return fmt.Sprintf("instrToMiss %d, run issue %d", ref.instrToMiss, run.instrToMiss)
	case math.Float64bits(ref.issueCredit) != math.Float64bits(run.issueCredit):
		return fmt.Sprintf("issueCredit %v, run issue %v", ref.issueCredit, run.issueCredit)
	case ref.phaseEnds != run.phaseEnds || ref.inBurst != run.inBurst || ref.activeMPKI != run.activeMPKI:
		return "phase state differs"
	case ref.rng != run.rng:
		return "core RNG state differs"
	case !slices.Equal(ref.misses, run.misses):
		return fmt.Sprintf("miss ring %v, run issue %v", ref.misses, run.misses)
	case rh != run.missHead || rc != run.missCount:
		return fmt.Sprintf("outstanding window head %d count %d, run issue %d %d", rh, rc, run.missHead, run.missCount)
	case rc > 0 && run.oldest != ref.misses[rh].instrNo:
		return fmt.Sprintf("cached oldest miss %d, ring head %d", run.oldest, ref.misses[rh].instrNo)
	case *ref.sys.rng != *run.sys.rng || ref.sys.missesIssued != run.sys.missesIssued:
		return fmt.Sprintf("system RNG or issued misses differ: %d vs %d", ref.sys.missesIssued, run.sys.missesIssued)
	}
	return ""
}

// TestCoreRunIssueMatchesReference steps refStep and Core.step side by
// side on twin systems, over random profiles and random completion
// cycles, and compares the cores bitwise after every cycle: retired,
// instrToMiss, the bits of issueCredit, the phase state, the core and
// system RNG states, the miss ring and the issued-miss count. The
// profiles span PeakIPC below and above 1 and MPKIs high enough to fill
// every MSHR, and the test fails unless some cycle takes the MSHR-full
// path (which undoes an issue) and some cycle stalls on the window.
func TestCoreRunIssueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	var full, stalled, runs int
	for trial := 0; trial < 150; trial++ {
		prof := &workload.Profile{
			Name:       fmt.Sprintf("random-%d", trial),
			PeakIPC:    []float64{0.3, 0.5, 0.75, 1, 1.3, 2, 2.7, 0.05 + 3*rng.Float64()}[rng.IntN(8)],
			L1MPKI:     []float64{0, 2, 20, 80, 300, 900, 1000 * rng.Float64()}[rng.IntN(7)],
			BurstRatio: 1 + 6*rng.Float64(),
			BurstFrac:  rng.Float64() / 2,
		}
		completeP := rng.Float64()
		seed := rng.Uint64()
		refSys, runSys := coreSystem(t, prof, seed), coreSystem(t, prof, seed)
		ref, run := &refSys.cores[0], &runSys.cores[0]
		// Phases of a few hundred cycles, so that a trial crosses several.
		for _, s := range []*System{refSys, runSys} {
			s.cfg.BurstPhaseCycles, s.cfg.LowPhaseCycles = 150, 400
		}
		if d := diffCores(ref, run); d != "" {
			t.Fatalf("trial %d: cores differ before the first step: %s", trial, d)
		}
		for now := int64(0); now < 3000; now++ {
			// Complete a few random outstanding misses, as the system's
			// events would before the cores step.
			for k := rng.IntN(3); k >= 0 && rng.Float64() < completeP; k-- {
				head, count := outstanding(run)
				var open []int
				for i := 0; i < count; i++ {
					if idx := (head + i) % len(run.misses); !run.misses[idx].done {
						open = append(open, idx)
					}
				}
				if len(open) == 0 {
					break
				}
				idx := open[rng.IntN(len(open))]
				ref.misses[idx].done = true
				run.completeMiss(idx)
			}
			before := run.retired
			refStep(ref, now)
			run.step(now)
			if d := diffCores(ref, run); d != "" {
				t.Fatalf("trial %d (%+v), cycle %d: %s", trial, *prof, now, d)
			}
			if run.retired-before > 1 {
				runs++
			}
			if run.missCount == len(run.misses) && run.instrToMiss == 1 {
				full++
			}
			if run.missCount > 0 && run.retired-run.oldest >= run.window {
				stalled++
			}
		}
	}
	if full == 0 || stalled == 0 || runs == 0 {
		t.Fatalf("coverage: %d MSHR-full cycles, %d window stalls, %d multi-instruction runs; want all > 0", full, stalled, runs)
	}
}
