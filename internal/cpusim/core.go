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
//
// Every core steps every cycle, so the fields a step reads come first,
// copied out of the profile and the system config, and the system keeps
// its cores by value in one slab.
type Core struct {
	// Per-cycle state.
	issueCredit float64 // fractional issue accumulator (PeakIPC may be <1/cycle-granular)
	peakIPC     float64 // prof.PeakIPC
	retired     int64
	// instrToMiss counts instructions until the next L1 miss.
	instrToMiss int64
	phaseEnds   int64
	// oldest is the instruction number of the oldest incomplete miss,
	// valid while missCount > 0: set when a miss issues into an empty
	// ring and advanced when the oldest completes.
	oldest    int64
	window    int64 // sys.cfg.WindowSize
	missCount int

	// Outstanding misses, in issue order (ring buffer of MSHR size). The
	// entry at missHead is the oldest incomplete miss: completions pop
	// done entries off the head at once.
	misses   []missRecord
	missHead int

	// Phase state (bursty MPKI).
	inBurst    bool
	mpkiLo     float64
	mpkiHi     float64
	activeMPKI float64

	id   int
	node int
	prof *workload.Profile
	sys  *System
	rng  sim.RNG
}

// init builds core id, running prof at node, in place over misses, its
// MSHR ring; root seeds its RNG as root.SplitN(id) would.
func (c *Core) init(sys *System, id, node int, prof *workload.Profile, root *sim.RNG, misses []missRecord) {
	*c = Core{id: id, node: node, prof: prof, sys: sys, misses: misses,
		peakIPC: prof.PeakIPC, window: int64(sys.cfg.WindowSize)}
	root.SplitNInto(id, &c.rng)

	// Split the profile's average MPKI into low/high phase values that
	// preserve the average given the burst ratio and duty cycle.
	avg := prof.MPKI()
	r := prof.BurstRatio
	if r < 1 {
		r = 1
	}
	h := prof.BurstFrac
	c.mpkiLo = avg / (float64(h*r) + (1 - h))
	c.mpkiHi = c.mpkiLo * r
	c.inBurst = false
	c.activeMPKI = c.mpkiLo
	c.phaseEnds = c.drawPhaseLen()
	c.drawNextMiss()
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

// step advances the core by one cycle at time now. Each loop turn
// retires a run of n instructions, n = min(⌊issueCredit⌋, window room,
// instructions to the next miss), which is what n turns of one
// instruction each would do: no turn inside the run can stall or miss,
// and subtracting the integer n from a credit below 2^53 is exact, so the
// credit ends bit-identical to n subtractions of 1.
func (c *Core) step(now int64) {
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

	c.issueCredit += c.peakIPC
	for c.issueCredit >= 1 {
		n := int64(c.issueCredit)
		// Window stall: the oldest outstanding miss blocks retirement once
		// the window fills behind it.
		if c.missCount > 0 {
			room := c.oldest + c.window - c.retired
			if room <= 0 {
				// Cap the credit so a long stall doesn't bank issue slots.
				if c.issueCredit > c.peakIPC {
					c.issueCredit = c.peakIPC
				}
				return
			}
			n = min(n, room)
		}
		n = min(n, c.instrToMiss)
		c.issueCredit -= float64(n)
		c.retired += n
		c.instrToMiss -= n
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
	idx := c.missHead + c.missCount
	if idx >= len(c.misses) {
		idx -= len(c.misses)
	}
	c.misses[idx] = missRecord{instrNo: c.retired}
	if c.missCount == 0 {
		c.oldest = c.retired
	}
	c.missCount++
	c.sys.launchMiss(now, c, idx)
}

// completeMiss marks the outstanding miss at ring index idx done. When it
// was the oldest, the done entries at the head retire from the ring and
// the next incomplete miss becomes the oldest.
func (c *Core) completeMiss(idx int) {
	c.misses[idx].done = true
	if idx != c.missHead {
		return
	}
	for c.missCount > 0 && c.misses[c.missHead].done {
		if c.missHead++; c.missHead == len(c.misses) {
			c.missHead = 0
		}
		c.missCount--
	}
	if c.missCount > 0 {
		c.oldest = c.misses[c.missHead].instrNo
	}
}
