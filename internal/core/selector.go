// Package core implements the paper's primary contribution: the Catnap
// subnet-selection policy (§3.2), the Catnap power-gating policy (§3.3,
// Figure 5), and the baseline policies the evaluation compares against —
// round-robin and random subnet selection, and Matsutani-style power
// gating without regional congestion status. Figure 13's injection-rate
// thresholds need no selector of their own: they run the Catnap selector
// on the detector's IR metric.
package core

import (
	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/sim"
)

// CatnapSelector implements Catnap's strict-priority subnet selection: a
// packet is injected into the lowest-order subnet that is not (regionally)
// congested; when every subnet is congested, the NI round-robins across
// them to spread the saturated load. If the preferred subnet's injection
// channel is busy serializing another packet, the packet waits — strict
// priority means traffic must not leak upward just because the low subnet
// is momentarily mid-packet.
type CatnapSelector struct {
	det *congestion.Detector
	rr  []int // per-node round-robin pointer for the all-congested case
}

// NewCatnapSelector returns a selector reading congestion state from det.
func NewCatnapSelector(det *congestion.Detector, nodes int) *CatnapSelector {
	return &CatnapSelector{det: det, rr: make([]int, nodes)}
}

// Select implements noc.SubnetSelector.
func (c *CatnapSelector) Select(now int64, node int, pkt *noc.Packet, ready []bool) int {
	subnets := len(ready)
	for s := 0; s < subnets; s++ {
		if !c.det.Congested(s, node) {
			if ready[s] {
				return s
			}
			return -1 // preferred subnet busy this cycle: hold
		}
	}
	// All subnets congested: round-robin over the ready ones.
	start := c.rr[node]
	for k := 0; k < subnets; k++ {
		s := (start + k) % subnets
		if ready[s] {
			c.rr[node] = (s + 1) % subnets
			return s
		}
	}
	return -1
}

// RRSelector distributes packets round-robin across subnets — the naive
// baseline whose uniform spreading defeats power gating (§3.2). It is also
// the trivial selector for Single-NoC (one subnet).
type RRSelector struct {
	rr []int
}

// NewRRSelector returns a round-robin selector for a network with the
// given node count.
func NewRRSelector(nodes int) *RRSelector {
	return &RRSelector{rr: make([]int, nodes)}
}

// Select implements noc.SubnetSelector.
func (r *RRSelector) Select(now int64, node int, pkt *noc.Packet, ready []bool) int {
	subnets := len(ready)
	start := r.rr[node]
	for k := 0; k < subnets; k++ {
		s := (start + k) % subnets
		if ready[s] {
			r.rr[node] = (s + 1) % subnets
			return s
		}
	}
	return -1
}

// RandomSelector picks uniformly among ready subnets — the other naive
// load-balancing baseline mentioned in §1.
type RandomSelector struct {
	rng *sim.RNG
}

// NewRandomSelector returns a selector drawing from rng.
func NewRandomSelector(rng *sim.RNG) *RandomSelector {
	return &RandomSelector{rng: rng}
}

// Select implements noc.SubnetSelector.
func (r *RandomSelector) Select(now int64, node int, pkt *noc.Packet, ready []bool) int {
	n := 0
	for _, ok := range ready {
		if ok {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := r.rng.Intn(n)
	for s, ok := range ready {
		if !ok {
			continue
		}
		if k == 0 {
			return s
		}
		k--
	}
	return -1
}

// OrderedSelector pins a message class to a fixed subnet and routes
// everything else through a fallback selector. The paper (§2.3) maps the
// point-to-point-ordered message class (directory request forwarding) to
// one specific lower-order subnet; OrderedSelector implements that
// mapping.
type OrderedSelector struct {
	// Class is the message class requiring point-to-point ordering.
	Class noc.MsgClass
	// Subnet is the fixed subnet for that class.
	Subnet int
	// Fallback selects for every other class.
	Fallback noc.SubnetSelector
}

// Select implements noc.SubnetSelector.
func (o *OrderedSelector) Select(now int64, node int, pkt *noc.Packet, ready []bool) int {
	if pkt.Class == o.Class {
		if ready[o.Subnet] {
			return o.Subnet
		}
		return -1
	}
	return o.Fallback.Select(now, node, pkt, ready)
}
