package noc

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestSwitchAllocateDifferential pins the mask walk of switch allocation
// against the reference scan one router at a time. Each trial gives one
// router a random allocation state — occupancy, front packets with and
// without a route or downstream VC, credits, front eligibleAt, op.rr and
// downstream power states — on two identical networks, runs the scan on
// one and switchAllocateFast on the other, and compares every outcome:
// the staged flits (which slot won each output), op.rr, credits, VC
// states, blockedFlitCycles, wake-ups and WakeupSignals. The 8x9
// flattened butterfly has radix 16 and 4 VCs: 64 slots, where the full
// mask is all ones and the rotations shift by 64.
func TestSwitchAllocateDifferential(t *testing.T) {
	mesh := internalConfig()
	mesh.Rows, mesh.Cols, mesh.RegionDim = 3, 3, 3
	mesh.VCs = 4
	torus := internalConfig()
	torus.Rows, torus.Cols, torus.RegionDim = 4, 4, 2
	torus.Torus = true
	fbfly := internalConfig()
	fbfly.Rows, fbfly.Cols, fbfly.RegionDim = 8, 9, 1
	fbfly.FBfly = true
	fbfly.VCs = 4
	for _, c := range []struct {
		name   string
		cfg    Config
		node   int
		trials int
	}{
		{"mesh-centre", mesh, 4, 3000},
		{"mesh-corner", mesh, 0, 1000},
		{"torus", torus, 5, 1000},
		{"fbfly-64-slots", fbfly, 30, 1500},
	} {
		t.Run(c.name, func(t *testing.T) {
			scan, err := New(c.cfg, firstReady{})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := New(c.cfg, firstReady{})
			if err != nil {
				t.Fatal(err)
			}
			if !fast.subnets[0].routers[c.node].slotMask {
				t.Fatal("router takes the scan fallback")
			}
			rng := rand.New(rand.NewPCG(1, uint64(c.node)))
			tails := 0 // trials in which a tail flit traversed
			for trial := 0; trial < c.trials; trial++ {
				seed := rng.Uint64()
				for _, net := range []*Network{scan, fast} {
					if err := net.Reset(c.cfg, firstReady{}); err != nil {
						t.Fatal(err)
					}
					randomAllocState(t, net, c.node, rand.New(rand.NewPCG(seed, 0)))
				}
				scan.subnets[0].refScan = true
				const now = 100
				ready := fast.subnets[0].routers[c.node].ready
				ms := scan.subnets[0].routers[c.node].switchAllocate(now)
				mf := fast.subnets[0].routers[c.node].switchAllocate(now)
				if ms != mf {
					t.Fatalf("trial %d: scan moved %d flits, masks %d", trial, ms, mf)
				}
				if d := diffAllocOutcome(scan.subnets[0], fast.subnets[0], c.node, now); d != "" {
					t.Fatalf("trial %d: %s", trial, d)
				}
				if ready&^fast.subnets[0].routers[c.node].ready != 0 {
					tails++ // only a tail's traverse leaves ready
				}
			}
			if tails == 0 {
				t.Fatal("no trial traversed a tail flit: the fixtures build no tails")
			}
		})
	}
}

// randomAllocState fills router node of net's first subnet with a random
// allocation state as of cycle 100, drawing every choice from rng, so two
// networks fed equal seeds end up identical. The masks the walk reads are
// rebuilt from the VC states.
func randomAllocState(t *testing.T, net *Network, node int, rng *rand.Rand) {
	t.Helper()
	const now = 100
	s := net.subnets[0]
	r := &s.routers[node]
	cfg := net.cfg
	var linked []int
	for o := range r.out {
		if o == net.localPort || r.out[o].downstream >= 0 {
			linked = append(linked, o)
		}
	}
	for o := range r.out {
		op := &r.out[o]
		op.rr = rng.IntN(len(r.in) * cfg.VCs)
		for v := range op.credits {
			op.credits[v] = int32(rng.IntN(cfg.VCDepth + 1))
		}
	}
	for p := range r.in {
		for v := 0; v < cfg.VCs; v++ {
			vc := &r.vcs[p*cfg.VCs+v]
			n := 0
			if rng.IntN(4) != 0 {
				n = 1 + rng.IntN(cfg.VCDepth)
			}
			// The front packet: unrouted (a head), routed and waiting for a
			// downstream VC, or holding one; an empty VC may still hold
			// one while its body flits are in flight.
			kind := rng.IntN(4)
			if n == 0 && kind == 0 {
				kind = 3
			}
			out := linked[rng.IntN(len(linked))]
			pkt := &Packet{NumFlits: 1 + rng.IntN(4)}
			seq := 0
			if kind != 0 {
				seq = rng.IntN(pkt.NumFlits)
			}
			for i := 0; i < n; i++ {
				if seq == pkt.NumFlits {
					pkt, seq = &Packet{NumFlits: 1 + rng.IntN(4)}, 0
				}
				r.deliver(now-3, p, v, testFlit(pkt, seq, linked[rng.IntN(len(linked))]))
				seq++
			}
			at := int64(now - 3 + rng.IntN(5))
			for i := 0; i < vc.count; i++ {
				vc.q[(vc.head+i)%len(vc.q)].eligibleAt = at
				at += int64(rng.IntN(3))
			}
			if kind == 0 {
				continue
			}
			vc.outPort, vc.allowed = out, cfg.vcMask(pkt.Class)
			if kind == 1 {
				continue
			}
			op := &r.out[out]
			for _, ov := range rng.Perm(cfg.VCs) {
				if op.busy&(1<<uint(ov)) == 0 {
					op.busy |= 1 << uint(ov)
					vc.outVC = int8(ov)
					break
				}
			}
		}
	}
	for o := range r.out {
		if down := r.out[o].downstream; down >= 0 && s.pstate[down] == PowerActive {
			switch rng.IntN(5) {
			case 0:
				s.routers[down].sleep(now-2, 10)
			case 1:
				s.routers[down].sleep(now-5, 10)
				s.routers[down].wake(now-2, cfg.TWakeup, WakePolicy)
			}
		}
	}
	r.ready, r.req, r.elig = r.allocMasksScan(now)
	if r.totalOcc != r.TotalOccupancyScan() {
		t.Fatal("fixture occupancy inconsistent")
	}
}

// diffAllocOutcome compares everything switch allocation may touch on
// router node of two subnets and returns the first difference, or "".
// It also checks that the traversals kept the mask-walk copy's masks
// equal to a rebuild from its VC states.
func diffAllocOutcome(a, b *Subnet, node int, now int64) string {
	ra, rb := &a.routers[node], &b.routers[node]
	if ra.blockedFlitCycles != rb.blockedFlitCycles || ra.grantedFlits != rb.grantedFlits {
		return fmt.Sprintf("blocked/granted: scan %d/%d, masks %d/%d",
			ra.blockedFlitCycles, ra.grantedFlits, rb.blockedFlitCycles, rb.grantedFlits)
	}
	if a.net.events != b.net.events {
		return fmt.Sprintf("power events: scan %+v, masks %+v", a.net.events, b.net.events)
	}
	for o := range ra.out {
		oa, ob := &ra.out[o], &rb.out[o]
		if oa.rr != ob.rr || !reflect.DeepEqual(oa.credits, ob.credits) || oa.busy != ob.busy {
			return fmt.Sprintf("output %d: scan rr %d credits %v busy %#x, masks rr %d credits %v busy %#x",
				o, oa.rr, oa.credits, oa.busy, ob.rr, ob.credits, ob.busy)
		}
		if busy, dup := rb.busyScan(o); dup || busy != ob.busy {
			return fmt.Sprintf("output %d: busy %#x, but the VC states hold %#x (dup %v)", o, ob.busy, busy, dup)
		}
	}
	for i := range ra.vcs {
		va, vb := &ra.vcs[i], &rb.vcs[i]
		if va.count != vb.count || va.head != vb.head || va.allowed != vb.allowed || va.outVC != vb.outVC {
			return fmt.Sprintf("slot %d state differs", i)
		}
	}
	if !reflect.DeepEqual(a.pstate, b.pstate) {
		return "downstream power states differ"
	}
	for n := range a.routers {
		if a.routers[n].wakeAt != b.routers[n].wakeAt {
			return fmt.Sprintf("router %d wakeAt: scan %d, masks %d", n, a.routers[n].wakeAt, b.routers[n].wakeAt)
		}
	}
	for i := range a.arrivals {
		if !reflect.DeepEqual(a.arrivals[i], b.arrivals[i]) || !reflect.DeepEqual(a.ejections[i], b.ejections[i]) ||
			!reflect.DeepEqual(a.credits[i], b.credits[i]) || !reflect.DeepEqual(a.niCredits[i], b.niCredits[i]) {
			return fmt.Sprintf("staged events in wheel slot %d differ (different grants)", i)
		}
	}
	if ready, req, elig := rb.allocMasksScan(now); rb.ready != ready || rb.req != req || rb.elig != elig {
		return "masks drifted from VC state across the traversals"
	}
	if ra.ready != rb.ready || ra.req != rb.req || ra.elig != rb.elig {
		return "scan and mask copies maintain different masks"
	}
	return ""
}
