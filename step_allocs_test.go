package catnap

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// stepAllocPeriod is one traffic period in cycles: a multiple of every
// wheel size (the powers of two at or above RouterDelay+LinkDelay+
// CreditDelay+4, RouterDelay+1 and TIdleDetect+2: 8, 4 and 8 at the
// paper's timing), so every period lands its events in the same wheel
// slots.
const stepAllocPeriod = 840

// TestStepAllocs pins the zero-allocation contract of Network.Step: once
// warm, stepping periodic traffic allocates nothing. Every period injects
// the same burst of uniform-random packets and must drain before it ends.
// The arms cover every design (and so every subnet selector and gating
// policy), each congestion metric with telemetry attached, and the
// reference-scan path; the 1024-packet burst congests the mesh enough to
// toggle RCS on the Catnap designs. Congestion-steered arms are not
// exactly periodic and now and then grow a wheel slot to a new high-water
// mark, so the bound is fewer than one allocation per 100 cycles rather
// than zero; an allocation per flit hop, wake or injection exceeds it by
// orders of magnitude. Four more arms run the closed-loop core model
// (Heavy and Light mixes) with a per-cycle bound of their own.
func TestStepAllocs(t *testing.T) {
	type arm struct {
		name               string
		cfg                Config
		telemetry, refScan bool
	}
	var arms []arm
	for _, d := range Designs() {
		arms = append(arms, arm{name: d, cfg: mustDesign(d)})
	}
	for m := congestion.BFM; m <= congestion.Delay; m++ {
		cfg := mustDesign("4NT-128b-PG")
		cfg.Metric = m
		arms = append(arms, arm{name: cfg.Name + "/" + m.String() + "+telemetry", cfg: cfg, telemetry: true})
	}
	for _, d := range []string{"4NT-128b-PG", "1NT-512b"} {
		arms = append(arms, arm{name: d + "/reference-scan", cfg: mustDesign(d), refScan: true})
	}
	for _, burst := range []int{16, 1024} {
		for _, a := range arms {
			t.Run(fmt.Sprintf("%s/burst%d", a.name, burst), func(t *testing.T) {
				s := mustSim(a.cfg)
				if a.refScan {
					s.Net.SetReferenceScan(true)
				}
				if a.telemetry {
					s.EnableTelemetry(telemetry.NewRecorder(telemetry.Options{}), a.name)
				}
				topo, rng := s.Net.Topo(), sim.NewRNG(1)
				period := func() {
					rng.Reseed(1)
					for i := 0; i < burst; i++ {
						src := i % topo.Nodes()
						dst := traffic.UniformRandom{}.Dest(rng, src, topo.Rows(), topo.Cols())
						s.Net.NewPacket(src, dst, noc.ClassSynthetic, traffic.SyntheticPacketBits)
					}
					s.Run(stepAllocPeriod)
					if n := s.Net.InFlight(); n != 0 {
						t.Fatalf("%d packets still in flight at the end of a period", n)
					}
				}
				// 8NT-64b's round-robin selector needs 8 periods before
				// every subnet's wheels have seen the burst.
				for i := 0; i < 16; i++ {
					period()
				}
				allocs := testing.AllocsPerRun(8, period)
				if allocs*100 >= stepAllocPeriod {
					t.Errorf("%.0f allocations per %d-cycle period, want fewer than one per 100 cycles", allocs, stepAllocPeriod)
				}
			})
		}
	}

	// The closed-loop core model inside Step. Its traffic is not
	// periodic, so event-heap, freelist and queue high-water marks keep
	// creeping up long after warm-up: these arms warm up 20,000 cycles
	// and allow fewer than 0.1 allocations per cycle (they measure at
	// most 0.01). One allocation per miss would read 5 or more.
	for _, d := range []string{"4NT-128b-PG", "1NT-512b"} {
		for _, mix := range []string{"Heavy", "Light"} {
			t.Run(d+"/"+mix, func(t *testing.T) {
				s := mustSim(mustDesign(d))
				if _, err := s.UseMix(mix); err != nil {
					t.Fatal(err)
				}
				s.Run(20000)
				const window = 1000
				allocs := testing.AllocsPerRun(4, func() { s.Run(window) })
				if perCycle := allocs / window; perCycle >= 0.1 {
					t.Errorf("%.3f allocations per cycle, want fewer than 0.1", perCycle)
				}
			})
		}
	}
}

// TestNewAllocBytes guards what building a simulator costs: once a
// warm-up New has filled the shared topology precompute, New of 1NT-512b
// allocates under 300 KB. Its two latency reservoirs, 256 KB each at
// their sample limit, grow with the packets a run delivers, so building
// one reserves neither. It also bounds the allocation count: New makes
// under 330 for 1NT-512b, 880 for 4NT-128b-PG and 1,500 for 8NT-64b,
// about 10% above what it makes (298, 803 and 1,369, and 274 KB), so a
// per-router or per-NI allocation (64 of them per subnet) shows.
func TestNewAllocBytes(t *testing.T) {
	cfg := mustDesign("1NT-512b")
	mustSim(cfg)
	const builds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		mustSim(cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 300_000 {
		t.Errorf("New(1NT-512b) allocates %d bytes, want under 300,000", per)
	}
	for _, c := range []struct {
		design string
		max    float64
	}{{"1NT-512b", 330}, {"4NT-128b-PG", 880}, {"8NT-64b", 1500}} {
		cfg := mustDesign(c.design)
		if n := testing.AllocsPerRun(builds, func() { mustSim(cfg) }); n >= c.max {
			t.Errorf("New(%s) makes %.0f allocations, want under %.0f", c.design, n, c.max)
		}
	}
}
