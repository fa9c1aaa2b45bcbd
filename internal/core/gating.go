package core

import (
	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/noc"
)

// CatnapGating implements the power-gating policy of paper §3.3 and
// Figure 5, layered on the regional congestion detector:
//
//   - A router in subnet h > 0 may sleep when its buffers have been empty
//     for T-idle-detect cycles (enforced by the substrate) AND the regional
//     congestion status of the immediately lower-order subnet h−1 is off —
//     if subnet h−1 isn't congested, the selection policy won't send subnet
//     h any traffic, so the idle period will last.
//   - A sleeping router in subnet h wakes proactively the moment subnet
//     h−1's RCS turns on, so the subnet is powered before the spill-over
//     traffic arrives. (Look-ahead wake-up signals and NI wake-ups are
//     substrate mechanics that back this policy up when it fires late.)
//   - Subnet 0 never sleeps: it guarantees connectivity at any load.
type CatnapGating struct {
	det *congestion.Detector
}

// NewCatnapGating returns the Catnap gating policy reading det.
func NewCatnapGating(det *congestion.Detector) *CatnapGating {
	return &CatnapGating{det: det}
}

// AllowSleep implements noc.GatingPolicy.
func (g *CatnapGating) AllowSleep(now int64, subnet, node int, idleCycles int64) bool {
	if subnet == 0 {
		return false
	}
	return !g.det.RCSAtNode(subnet-1, node)
}

// WantWake implements noc.GatingPolicy.
func (g *CatnapGating) WantWake(now int64, subnet, node int) bool {
	if subnet == 0 {
		return true
	}
	return g.det.RCSAtNode(subnet-1, node)
}

// PolicyEpoch implements noc.GatingPolicy: both answers are pure
// functions of the detector's congestion state, so the detector's
// change counter is the policy's decision epoch. The power phase then
// re-evaluates sleeping/blocked routers only when an LCS or RCS moved.
func (g *CatnapGating) PolicyEpoch() uint64 { return g.det.Epoch() }

var _ noc.GatingPolicy = (*CatnapGating)(nil)

// BaselineGating is the Matsutani-style power-gating policy used for the
// Single-NoC-PG and Multi-NoC round-robin baselines (§6.1): a router
// sleeps whenever its buffers have been empty for T-idle-detect cycles —
// no congestion awareness — and wakes only reactively, on look-ahead
// wake-up signals from upstream routers or on pending NI injections (both
// are substrate mechanics).
type BaselineGating struct{}

// AllowSleep implements noc.GatingPolicy; the substrate has already
// enforced the idle-detect window.
func (BaselineGating) AllowSleep(now int64, subnet, node int, idleCycles int64) bool {
	return true
}

// WantWake implements noc.GatingPolicy: baseline gating never wakes a
// router proactively.
func (BaselineGating) WantWake(now int64, subnet, node int) bool { return false }

// PolicyEpoch implements noc.GatingPolicy: baseline answers never
// change, so the epoch is constant and sleeping routers are never
// re-polled.
func (BaselineGating) PolicyEpoch() uint64 { return 0 }

var _ noc.GatingPolicy = BaselineGating{}
