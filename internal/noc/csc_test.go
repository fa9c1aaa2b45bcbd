package noc_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// The compensated-sleep-cycle known answers. A sleep period of L cycles
// counts max(0, L - TBreakeven) compensated cycles (Hu et al.), and a
// read counts an open period up to Now(). The script below drives a 4x4,
// 2-subnet, baseline-gated network (TIdleDetect 4, TBreakeven 12): every
// router sleeps at cycle 3, two injected packets wake routers along their
// routes, and reads land inside sleep periods, across wake-ups, and twice
// at one cycle. The answers are pinned, and every stepping path must
// reproduce them.

// cscInjections maps a cycle to the packets (src, dst) created at it,
// before that cycle steps.
var cscInjections = map[int64][][2]int{
	// Router 0 of subnet 0 has slept 7 cycles (3 to 10) when its NI wakes
	// it: a period shorter than TBreakeven, which counts 0.
	10: {{0, 3}},
	// By 200 the network has slept since the first packet passed: the
	// NI's wake of router 15 closes a period longer than TBreakeven.
	200: {{15, 12}},
}

// cscKnownAnswers are CompensatedSleepCycles() at each read cycle, read
// before any packet of that cycle is created and before the cycle steps.
var cscKnownAnswers = []struct{ cycle, csc int64 }{
	{0, 0},
	{3, 0},
	{10, 0},  // every router asleep 7 cycles: under TBreakeven
	{15, 0},  // asleep exactly TBreakeven cycles
	{16, 31}, // one each, but router 0 of subnet 0 woke at 10
	{40, 748},
	{80, 1948},
	{100, 2588}, // 80 -> 100 inside one sleep period: 32 routers x 20
	{200, 5788},
	{201, 5819}, // router 15 of subnet 0 woke at 200; 31 still accrue
	{260, 7571},
	{300, 8851},
}

// cscEventAnswers are Events() at two read cycles of the same script:
// one just after the second packet's NI wake-up, and the last.
var cscEventAnswers = map[int64]noc.PowerEvents{
	201: {
		BufferWrites: 16, XbarTraversals: 16, LinkTraversals: 12,
		NIFlits: 8, ActiveRouterCycles: 222,
		GatingTransitions: 5, WakeupSignals: 5,
	},
	300: {
		BufferWrites: 32, XbarTraversals: 32, LinkTraversals: 24,
		NIFlits: 16, ActiveRouterCycles: 314,
		GatingTransitions: 8, WakeupSignals: 8,
	},
}

// readCSC returns the network's compensated sleep cycles as of Now().
func readCSC(net *noc.Network) int64 {
	csc, _ := net.CompensatedSleepCycles()
	return csc
}

// runCSCScript drives net through the injections and returns the answer
// at every read cycle, and the power events at the cycles
// cscEventAnswers names. With skip set it fast-forwards quiescent spans
// up to the next scripted cycle, as Simulator.Run does, and also returns
// how many cycles it skipped.
func runCSCScript(t *testing.T, net *noc.Network, skip bool) (got []int64, events map[int64]noc.PowerEvents, skipped int64) {
	t.Helper()
	net.SetGatingPolicy(core.BaselineGating{})
	events = map[int64]noc.PowerEvents{}
	for _, ka := range cscKnownAnswers {
		for net.Now() < ka.cycle {
			pkts := cscInjections[net.Now()]
			for _, p := range pkts {
				net.NewPacket(p[0], p[1], noc.ClassSynthetic, traffic.SyntheticPacketBits)
			}
			// Every injection cycle is a read cycle, so a skip bounded by
			// the next read never passes one.
			if skip && len(pkts) == 0 {
				if k := net.TrySkipIdle(ka.cycle); k > 0 {
					skipped += k
					continue
				}
			}
			net.Step()
		}
		first, second := readCSC(net), readCSC(net)
		if first != second {
			t.Fatalf("cycle %d: two reads disagree: %d then %d", ka.cycle, first, second)
		}
		got = append(got, first)
		if _, ok := cscEventAnswers[ka.cycle]; ok {
			events[ka.cycle] = net.Events()
		}
	}
	return got, events, skipped
}

// TestCSCKnownAnswersDifferential checks the pinned answers (compensated
// sleep cycles, and the power events at two cycles) on the
// incremental path, with idle fast-forward, on the reference scan, and on
// a network that ran other traffic under another shape before its Reset.
func TestCSCKnownAnswersDifferential(t *testing.T) {
	cfg := testConfig(4, 4, 2, 128)
	fresh := func(t *testing.T) *noc.Network { return newNet(t, cfg) }
	arms := []struct {
		name string
		net  func(t *testing.T) *noc.Network
		skip bool
	}{
		{"incremental", fresh, false},
		{"skip", fresh, true},
		{"reference-scan", func(t *testing.T) *noc.Network {
			net := newNet(t, cfg)
			net.SetReferenceScan(true)
			return net
		}, false},
		{"reset", func(t *testing.T) *noc.Network {
			return dirtyReset(t, testConfig(4, 4, 4, 64), cfg, 500)
		}, false},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			got, events, skipped := runCSCScript(t, arm.net(t), arm.skip)
			for i, ka := range cscKnownAnswers {
				if got[i] != ka.csc {
					t.Errorf("cycle %d: CSC %d, want %d", ka.cycle, got[i], ka.csc)
				}
			}
			for cycle, want := range cscEventAnswers {
				if events[cycle] != want {
					t.Errorf("cycle %d: power events %+v, want %+v", cycle, events[cycle], want)
				}
			}
			if arm.skip && skipped == 0 {
				t.Error("idle fast-forward never engaged")
			}
		})
	}
}
