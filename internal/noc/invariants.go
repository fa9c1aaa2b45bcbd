package noc

import "fmt"

// CheckQuiescent verifies that a drained network is in its pristine
// state: every buffer empty, every credit returned, every virtual channel
// released, every staging wheel empty, and no packet unaccounted for. A
// non-nil error indicates a flow-control bug (lost flit, leaked credit,
// or stuck wormhole allocation). The test suite calls it after every
// drain; it is exported because it is equally useful to users embedding
// the simulator.
func (n *Network) CheckQuiescent() error {
	if k := n.InFlight(); k != 0 {
		return fmt.Errorf("noc: %d packets still in flight", k)
	}
	if c, i, e := n.createdPkts, n.injectedPkts, n.ejectedPkts; c != i || c != e {
		return fmt.Errorf("noc: packet conservation violated: created=%d injected=%d ejected=%d", c, i, e)
	}
	for si, s := range n.subnets {
		for w := range s.arrivals {
			if len(s.arrivals[w]) != 0 || len(s.credits[w]) != 0 || len(s.niCredits[w]) != 0 || len(s.ejections[w]) != 0 {
				return fmt.Errorf("noc: subnet %d wheel slot %d not empty", si, w)
			}
		}
		for w := range s.eligWheel {
			if len(s.eligWheel[w]) != 0 {
				return fmt.Errorf("noc: subnet %d eligibility wheel slot %d not empty", si, w)
			}
		}
		for ni := range s.routers {
			if s.occSlots[ni] != 0 {
				return fmt.Errorf("noc: subnet %d router %d occupancy bitmask %#x not drained", si, ni, s.occSlots[ni])
			}
			r := &s.routers[ni]
			for p := range r.in {
				ip := &r.in[p]
				if ip.occupancy != 0 {
					return fmt.Errorf("noc: subnet %d router %d port %d holds %d flits", si, ni, p, ip.occupancy)
				}
				for v := 0; v < n.cfg.VCs; v++ {
					vc := &r.vcs[p*n.cfg.VCs+v]
					if !vc.empty() {
						return fmt.Errorf("noc: subnet %d router %d port %d vc %d not empty", si, ni, p, v)
					}
					if vc.outVC >= 0 || vc.allowed != 0 {
						return fmt.Errorf("noc: subnet %d router %d port %d vc %d wormhole state leaked", si, ni, p, v)
					}
				}
				op := &r.out[p]
				if op.credits != nil {
					for v, c := range op.credits {
						if c != int32(n.cfg.VCDepth) {
							return fmt.Errorf("noc: subnet %d router %d out %d vc %d credits=%d want %d", si, ni, p, v, c, n.cfg.VCDepth)
						}
					}
				}
				if op.busy != 0 {
					return fmt.Errorf("noc: subnet %d router %d out %d VCs %#x still allocated", si, ni, p, op.busy)
				}
			}
		}
	}
	for si, s := range n.subnets {
		if msg := s.checkAggregates(n.now - 1); msg != "" {
			return fmt.Errorf("noc: subnet %d incremental aggregates: %s", si, msg)
		}
		for _, w := range s.occBits {
			if w != 0 {
				return fmt.Errorf("noc: subnet %d occupied-router bitmap not empty while drained", si)
			}
		}
	}
	for _, w := range n.niQBits {
		if w != 0 {
			return fmt.Errorf("noc: NI queued bitmap not empty while drained")
		}
	}
	if !n.refScan {
		for _, w := range n.niWorkBits {
			if w != 0 {
				return fmt.Errorf("noc: NI work bitmap not empty while drained")
			}
		}
	}
	for node, ni := range n.nis {
		if ni.Backlogged() {
			return fmt.Errorf("noc: NI %d still backlogged", node)
		}
		if ni.injQFlits != 0 {
			return fmt.Errorf("noc: NI %d injection queue accounting: %d flits", node, ni.injQFlits)
		}
		for s := range ni.channels {
			ch := &ni.channels[s]
			for v, c := range ch.credits {
				if c != n.cfg.VCDepth {
					return fmt.Errorf("noc: NI %d channel %d vc %d credits=%d want %d", node, s, v, c, n.cfg.VCDepth)
				}
			}
			if ch.busy != 0 {
				return fmt.Errorf("noc: NI %d channel %d VCs %#x still allocated", node, s, ch.busy)
			}
		}
	}
	return nil
}
