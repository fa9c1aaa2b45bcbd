// Bursty: watch Catnap adapt network bandwidth to bursty traffic — the
// Figure 12 scenario. The offered load jumps from 0.01 to 0.30
// packets/node/cycle for 500 cycles (burst 1), returns to base, then
// jumps to 0.10 (burst 2). Catnap must open higher-order subnets within a
// couple hundred cycles for burst 1, open only part of the network for
// the smaller burst 2, and put everything back to sleep in between.
//
// The run is instrumented with the cycle-level telemetry subsystem
// (internal/telemetry): a Recorder collects router sleep/wake events
// with their causes and a 50-cycle windowed per-subnet power-state
// series, which this example renders as a sparkline.
package main

import (
	"context"
	"fmt"
	"strings"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/traffic"
)

func main() {
	// First, two router power-state snapshots from a live run: mid-burst
	// (every subnet lit) and after the decay (only subnet 0 awake).
	// A telemetry recorder rides along and sees every transition.
	sim, err := catnap.New(mustDesign("4NT-128b-PG"))
	if err != nil {
		panic(err)
	}
	rec := telemetry.NewRecorder(telemetry.Options{Window: 50})
	sim.EnableTelemetry(rec, "bursty")
	sim.UseSynthetic(traffic.UniformRandom{}, traffic.Fig12Bursts(), 0)
	sim.Run(1400) // mid first burst
	fmt.Println("router power states mid-burst (cycle 1400; # active, ~ waking, . asleep):")
	fmt.Println(sim.Net.PowerStateGrids())
	sim.Run(600) // cycle 2000: decayed
	fmt.Println("after the burst decays (cycle 2000):")
	fmt.Println(sim.Net.PowerStateGrids())

	// What the event log saw: every sleep/wake, attributed to a cause.
	fmt.Printf("telemetry: %d events (%d sleeps; wakes: %d look-ahead, %d ni, %d policy)\n",
		rec.Log().Total(),
		rec.Log().Count(telemetry.EventRouterSleep),
		countWakes(rec, "look-ahead"), countWakes(rec, "ni"), countWakes(rec, "policy"))

	// The windowed asleep-router series per subnet — Figure 12(a)'s raw
	// material. The 8x8 mesh has 64 routers per subnet; each glyph is
	// one 50-cycle window.
	fmt.Println("\nasleep routers per 50-cycle window (darker = more asleep):")
	asleep := map[int][]float64{}
	for _, p := range rec.Metrics() {
		if p.Metric == telemetry.MetricAsleepRouterCycles && p.Cycle >= 0 {
			asleep[p.Subnet] = append(asleep[p.Subnet], p.Value/50) // mean routers asleep
		}
	}
	nodes := float64(sim.Net.Topo().Nodes())
	for s := 0; s < 4; s++ {
		fmt.Printf("  subnet %d  %s\n", s, spark(asleep[s], nodes))
	}

	// The same scenario through the consolidated experiment API; the
	// typed Fig12 points ride in Result.Data.
	res, err := catnap.RunExperiment(context.Background(), "fig12", catnap.ExperimentOpts{})
	if err != nil {
		panic(err)
	}
	points := res.Data.([]catnap.Fig12Point)

	fmt.Println("\ncycle   offered  accepted  subnet shares (0..3)        active subnets")
	for _, p := range points {
		if p.Cycle%100 != 0 {
			continue // print every other window for readability
		}
		bar := ""
		active := 0
		for _, s := range p.SubnetShare {
			n := int(float64(s*10) + 0.5)
			bar += strings.Repeat("#", n) + strings.Repeat(".", 10-n) + " "
			if s > 0.02 {
				active++
			}
		}
		fmt.Printf("%5d   %.3f    %.3f     %s %d\n", p.Cycle, p.Offered, p.Accepted, bar, active)
	}

	fmt.Println(`
Reading the trace:
  cycles    0-1000: base load 0.01  -> subnet 0 carries everything
  cycles 1000-1500: burst to 0.30   -> congestion spills load across all subnets
  cycles 1500-2000: back to base    -> higher subnets drain and sleep again
  cycles 2000-2500: burst to 0.10   -> only as many subnets open as the load needs
  cycles 2500-3000: base            -> back to subnet 0 alone`)
}

// countWakes tallies wake events with the given cause string.
func countWakes(rec *telemetry.Recorder, cause string) int {
	n := 0
	for _, e := range rec.Log().Events() {
		if e.Type == telemetry.EventRouterWake && e.Cause == cause {
			n++
		}
	}
	return n
}

// spark renders values in [0, max] as a one-line density plot.
func spark(vals []float64, max float64) string {
	glyphs := []rune(" .:-=+*#%@")
	var b strings.Builder
	for _, v := range vals {
		i := int(v / max * float64(len(glyphs)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(glyphs) {
			i = len(glyphs) - 1
		}
		b.WriteRune(glyphs[i])
	}
	return b.String()
}

func mustDesign(name string) catnap.Config {
	cfg, err := catnap.Design(name)
	if err != nil {
		panic(err)
	}
	return cfg
}
