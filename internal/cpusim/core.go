// Package cpusim is the closed-loop 256-core system model of Table 1: 2-wide
// cores with 64-entry instruction windows and 32 MSHRs, private L1s, a
// shared distributed L2 with a 4-hop MESI directory protocol, and eight
// DRAM memory controllers. It generates the application-workload network
// traffic (request/forward/response/ack/writeback packets with the paper's
// 1-flit-control / 64B+72b-data sizing) and feeds network response latency
// back into core progress, so "normalized system performance" (Figures 2
// and 8) is measured, not assumed.
//
// Cores replay statistical benchmark profiles (internal/workload) instead
// of proprietary Pin traces — the substitution is documented in DESIGN.md.
package cpusim

import (
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/workload"
)

// missRecord tracks one outstanding L1 miss in a core's window.
type missRecord struct {
	instrNo int64 // instruction count at issue
	done    bool
}

// Core models one 2-wide out-of-order core at the fidelity the network
// study needs: it issues instructions at the profile's peak rate, takes
// L1 misses at the profile's (phase-modulated) MPKI, overlaps misses up
// to the MSHR limit, and stalls when the oldest outstanding miss slips
// beyond the 64-entry instruction window — so network latency directly
// throttles instruction throughput.
type Core struct {
	id      int
	node    int
	prof    *workload.Profile
	rng     *sim.RNG
	sys     *System
	enabled bool

	// Instruction accounting.
	retired     int64
	issueCredit float64 // fractional issue accumulator (PeakIPC may be <1/cycle-granular)

	// Outstanding misses, in issue order (ring buffer of MSHR size).
	misses    []missRecord
	missHead  int
	missCount int

	// instrToMiss counts instructions until the next L1 miss.
	instrToMiss int64

	// Phase state (bursty MPKI).
	inBurst    bool
	phaseEnds  int64
	mpkiLo     float64
	mpkiHi     float64
	activeMPKI float64
}

// newCore builds a core running prof at node.
func newCore(sys *System, id, node int, prof *workload.Profile, rng *sim.RNG) *Core {
	c := &Core{id: id, node: node, prof: prof, rng: rng, sys: sys, enabled: true}
	c.misses = make([]missRecord, sys.cfg.MSHRs)

	// Split the profile's average MPKI into low/high phase values that
	// preserve the average given the burst ratio and duty cycle.
	avg := prof.MPKI()
	r := prof.BurstRatio
	if r < 1 {
		r = 1
	}
	h := prof.BurstFrac
	c.mpkiLo = avg / (h*r + (1 - h))
	c.mpkiHi = c.mpkiLo * r
	c.inBurst = false
	c.activeMPKI = c.mpkiLo
	c.phaseEnds = c.drawPhaseLen()
	c.drawNextMiss()
	return c
}

// drawPhaseLen samples the current phase's remaining length in cycles.
func (c *Core) drawPhaseLen() int64 {
	mean := c.sys.cfg.LowPhaseCycles
	if c.inBurst {
		mean = c.sys.cfg.BurstPhaseCycles
	}
	// Geometric approximation of an exponential phase length.
	return int64(c.rng.Geometric(1/float64(mean))) + 1
}

// drawNextMiss samples the instruction distance to the next L1 miss from
// the active phase's MPKI.
func (c *Core) drawNextMiss() {
	p := c.activeMPKI / 1000
	if p <= 0 {
		c.instrToMiss = 1 << 60
		return
	}
	if p > 1 {
		p = 1
	}
	c.instrToMiss = int64(c.rng.Geometric(p)) + 1
}

// oldestMiss returns the instruction number of the oldest incomplete miss
// and whether one exists.
func (c *Core) oldestMiss() (int64, bool) {
	for c.missCount > 0 && c.misses[c.missHead].done {
		c.missHead = (c.missHead + 1) % len(c.misses)
		c.missCount--
	}
	if c.missCount == 0 {
		return 0, false
	}
	return c.misses[c.missHead].instrNo, true
}

// step advances the core by one cycle at time now.
func (c *Core) step(now int64) {
	if !c.enabled {
		return
	}
	// Phase transitions.
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
		// Window stall: the oldest outstanding miss blocks retirement once
		// the window fills behind it.
		if oldest, ok := c.oldestMiss(); ok {
			if c.retired-oldest >= int64(c.sys.cfg.WindowSize) {
				// Cap the credit so a long stall doesn't bank issue slots.
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
				// MSHRs full: the miss (and the core) waits; model as a
				// stall by pushing the miss to the next cycle.
				c.retired--
				c.issueCredit++
				c.instrToMiss = 1
				return
			}
			c.issueMiss(now)
		}
	}
}

// issueMiss records the miss in the window and asks the system to launch
// its coherence transaction.
func (c *Core) issueMiss(now int64) {
	idx := (c.missHead + c.missCount) % len(c.misses)
	c.misses[idx] = missRecord{instrNo: c.retired}
	c.missCount++
	c.sys.launchMiss(now, c, idx)
}

// completeMiss marks the outstanding miss at ring index idx done.
func (c *Core) completeMiss(idx int) {
	c.misses[idx].done = true
}
