package cpusim_test

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/cpusim"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/workload"
)

func netConfig(rows, cols, subnets, width int) noc.Config {
	return noc.Config{
		Rows: rows, Cols: cols, TilesPerNode: 4, RegionDim: rows / 2,
		Subnets: subnets, LinkWidthBits: width,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
		AppTraffic: true,
	}
}

func buildSystem(t *testing.T, ncfg noc.Config, mixName string) (*noc.Network, *cpusim.System) {
	t.Helper()
	net, err := noc.New(ncfg, core.NewRRSelector(ncfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cpusim.New(net, cpusim.DefaultConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	return net, sys
}

func TestSystemClosedLoop(t *testing.T) {
	net, sys := buildSystem(t, netConfig(4, 4, 1, 512), "Medium-Light")
	net.Run(20000)
	issued, completed := sys.MissStats()
	if issued == 0 {
		t.Fatal("no misses issued")
	}
	// The vast majority of misses must complete (closed loop, no leaks);
	// only the last in-flight window may be pending.
	if float64(completed) < 0.95*float64(issued) {
		t.Fatalf("completed %d of %d misses", completed, issued)
	}
	if ipc := sys.SystemIPC(); ipc <= 0 {
		t.Fatalf("system IPC = %v", ipc)
	}
}

func TestIPCSensitivityToMPKI(t *testing.T) {
	// On identical networks, a Heavy mix must retire fewer instructions
	// per cycle than a Light mix: misses stall windows.
	netL, sysL := buildSystem(t, netConfig(4, 4, 1, 512), "Light")
	netH, sysH := buildSystem(t, netConfig(4, 4, 1, 512), "Heavy")
	netL.Run(20000)
	netH.Run(20000)
	if sysL.SystemIPC() <= sysH.SystemIPC() {
		t.Fatalf("Light IPC %.2f should exceed Heavy IPC %.2f", sysL.SystemIPC(), sysH.SystemIPC())
	}
}

// TestFig2Shape reproduces Figure 2's core finding at test scale: an
// under-provisioned network hurts Heavy far more than Light.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run system simulation")
	}
	run := func(mix string, width int) float64 {
		net, sys := buildSystem(t, netConfig(8, 8, 1, width), mix)
		net.Run(5000) // warmup
		sys.StartMeasurement()
		net.Run(15000)
		return sys.SystemIPC()
	}
	lightWide := run("Light", 512)
	lightNarrow := run("Light", 128)
	heavyWide := run("Heavy", 512)
	heavyNarrow := run("Heavy", 128)

	lightLoss := 1 - lightNarrow/lightWide
	heavyLoss := 1 - heavyNarrow/heavyWide
	t.Logf("light loss %.1f%%, heavy loss %.1f%%", lightLoss*100, heavyLoss*100)
	if heavyLoss < lightLoss+0.05 {
		t.Errorf("narrow NoC should hurt Heavy (%.1f%%) much more than Light (%.1f%%)", heavyLoss*100, lightLoss*100)
	}
	if heavyLoss < 0.15 {
		t.Errorf("Heavy loss %.1f%% too small; paper reports ~41%%", heavyLoss*100)
	}
	if lightLoss > 0.15 {
		t.Errorf("Light loss %.1f%% too large; Light fits in a 128-bit NoC", lightLoss*100)
	}
}

func TestDefaultMCNodes(t *testing.T) {
	nodes := cpusim.DefaultMCNodes(8, 8)
	if len(nodes) != 8 {
		t.Fatalf("got %d MC nodes, want 8", len(nodes))
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		if n < 0 || n >= 64 {
			t.Errorf("MC node %d out of range", n)
		}
		if seen[n] {
			t.Errorf("duplicate MC node %d", n)
		}
		seen[n] = true
		if n%8 != 0 && n%8 != 7 {
			t.Errorf("MC node %d not on an east/west edge", n)
		}
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		net, sys := buildSystem(t, netConfig(4, 4, 2, 256), "Medium-Heavy")
		net.Run(10000)
		i, _ := sys.MissStats()
		return sys.SystemIPC(), i
	}
	ipc1, m1 := run()
	ipc2, m2 := run()
	if ipc1 != ipc2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", ipc1, m1, ipc2, m2)
	}
}
