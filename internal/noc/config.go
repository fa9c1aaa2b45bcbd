package noc

import (
	"fmt"

	"github.com/catnap-noc/catnap/internal/topology"
)

// Config describes one network instance (Single-NoC or Multi-NoC). The
// zero value is not usable; start from a preset in the root catnap package
// or fill every field and call Validate.
type Config struct {
	// Rows, Cols are the mesh dimensions in routers.
	Rows, Cols int
	// TilesPerNode is the concentration factor (tiles sharing one NI).
	TilesPerNode int
	// RegionDim is the side of the square congestion-detection regions.
	RegionDim int
	// Torus adds wraparound links in both dimensions (a 2-D torus), the
	// paper's §8 future work ("further study is required ... for other
	// topologies"). Torus mode reserves the VC space for dateline
	// deadlock avoidance: it requires at least 2 VCs and cannot carry
	// AppTraffic's per-class VC sets.
	Torus bool
	// FBfly builds a flattened butterfly (§2.2's high-radix alternative)
	// instead of a mesh: every router links directly to all routers in
	// its row and column (radix rows+cols−1 including the local port), so
	// any packet needs at most two hops. Dimension-ordered routing is
	// deadlock-free without datelines. Mutually exclusive with Torus.
	FBfly bool

	// Subnets is the number of parallel subnetworks (1 = Single-NoC).
	Subnets int
	// LinkWidthBits is the datapath width of each subnet. The aggregate
	// width is Subnets*LinkWidthBits; paper configurations hold the
	// aggregate at 512 bits.
	LinkWidthBits int

	// VCs is the number of virtual channels per input port per subnet.
	VCs int
	// VCDepth is the buffer depth of each virtual channel in flits. The
	// paper keeps flit-depth constant across configurations (so aggregate
	// buffer *bits* are constant, since flits shrink with subnet width).
	VCDepth int
	// InjQueueFlits is the capacity of the NI injection queue in flits
	// (16 in the paper; the IQOcc congestion metric reads its occupancy).
	InjQueueFlits int

	// RouterDelay is the router pipeline depth in cycles between a flit's
	// arrival (buffer write) and its earliest switch traversal; 2 models
	// the paper's two-stage speculative router (the arrival cycle performs
	// BW+look-ahead RC, the next VA/SA, then ST).
	RouterDelay int
	// LinkDelay is the link traversal latency in cycles.
	LinkDelay int
	// CreditDelay is the credit return latency in cycles.
	CreditDelay int

	// AppTraffic gives each dependent coherence message class its own
	// fixed set of virtual channels for protocol-level deadlock freedom
	// (§2.3; see appClassVCMask); it needs at least 4 VCs. Leave it false
	// for synthetic traffic, which may use every VC.
	AppTraffic bool

	// Power gating timing constants (from the paper's SPICE analysis).
	// They live here because the router mechanics (not just the policy)
	// depend on them; the policy decides *when*, the router decides *how
	// long it takes*.

	// TWakeup is the full router wake-up delay in cycles (10).
	TWakeup int
	// WakeupHidden is how many of TWakeup cycles a look-ahead wakeup
	// signal hides (3, per Matsutani's scheme on a two-stage router).
	WakeupHidden int
	// TIdleDetect is how many consecutive empty-buffer cycles arm the
	// buffer-empty condition (4).
	TIdleDetect int
	// TBreakeven is the sleep-period break-even point in cycles (12),
	// used by CSC accounting and the gating energy overhead.
	TBreakeven int
}

// maxMeshDim bounds Rows and Cols so that every narrowed hot-path field
// holds any value a valid Config produces: node ids stay below 2^24, so
// they fit the int32 nodes of staged records and the node<<6|slot
// entries of the eligibility wheel, and the largest radix (a flattened
// butterfly's Rows+Cols-1) fits the uint16 ports of flits and staged
// records. VCs (at most 32) fit their uint16 fields too.
const maxMeshDim = 1 << 12

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c *Config) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Rows, c.Cols)
	case c.Rows > maxMeshDim || c.Cols > maxMeshDim:
		return fmt.Errorf("noc: a %dx%d mesh exceeds %d routers per side", c.Rows, c.Cols, maxMeshDim)
	case c.Rows*c.Cols < 2:
		return fmt.Errorf("noc: a %dx%d mesh has no destination for traffic; need at least 2 nodes", c.Rows, c.Cols)
	case c.TilesPerNode <= 0:
		return fmt.Errorf("noc: invalid concentration %d", c.TilesPerNode)
	case c.RegionDim <= 0 || c.Rows%c.RegionDim != 0 || c.Cols%c.RegionDim != 0:
		return fmt.Errorf("noc: region dim %d does not tile %dx%d", c.RegionDim, c.Rows, c.Cols)
	case c.Subnets <= 0:
		return fmt.Errorf("noc: need at least one subnet, got %d", c.Subnets)
	case c.LinkWidthBits <= 0:
		return fmt.Errorf("noc: invalid link width %d", c.LinkWidthBits)
	case c.VCs <= 0 || c.VCs > 32:
		return fmt.Errorf("noc: VCs must be in [1,32], got %d", c.VCs)
	case c.VCDepth <= 0:
		return fmt.Errorf("noc: invalid VC depth %d", c.VCDepth)
	case c.InjQueueFlits <= 0:
		return fmt.Errorf("noc: invalid injection queue capacity %d", c.InjQueueFlits)
	case c.RouterDelay < 1:
		return fmt.Errorf("noc: router delay must be >= 1, got %d", c.RouterDelay)
	case c.LinkDelay < 1:
		return fmt.Errorf("noc: link delay must be >= 1, got %d", c.LinkDelay)
	case c.CreditDelay < 0:
		return fmt.Errorf("noc: negative credit delay %d", c.CreditDelay)
	case c.TWakeup < 0 || c.WakeupHidden < 0 || c.WakeupHidden > c.TWakeup:
		return fmt.Errorf("noc: inconsistent wakeup timing (TWakeup=%d hidden=%d)", c.TWakeup, c.WakeupHidden)
	case c.TIdleDetect < 0 || c.TBreakeven < 0:
		return fmt.Errorf("noc: negative gating constants")
	case c.AppTraffic && c.VCs < 4:
		return fmt.Errorf("noc: AppTraffic needs >= 4 VCs for its per-class VC sets, got %d", c.VCs)
	case c.Torus && c.FBfly:
		return fmt.Errorf("noc: Torus and FBfly are mutually exclusive")
	case c.FBfly && (c.Rows < 2 || c.Cols < 2):
		return fmt.Errorf("noc: flattened butterfly needs >=2x2 routers")
	case c.Torus && c.VCs < 2:
		return fmt.Errorf("noc: torus needs >= 2 VCs for dateline classes, got %d", c.VCs)
	case c.Torus && c.AppTraffic:
		return fmt.Errorf("noc: torus mode reserves the VCs for datelines and cannot carry AppTraffic")
	}
	return nil
}

// Nodes returns the number of network nodes (routers per subnet).
func (c *Config) Nodes() int { return c.Rows * c.Cols }

// appClassVCMask is §2.3's class map under AppTraffic (bit i = VC i):
// requests on VC0, forwards on VC1 (the point-to-point-ordered class),
// responses on VC2–3, acks and writebacks on VC3. A zero entry (synthetic
// traffic) means every VC.
var appClassVCMask = [NumClasses]uint32{
	ClassRequest:  1 << 0,
	ClassForward:  1 << 1,
	ClassResponse: 1<<2 | 1<<3,
	ClassAck:      1 << 3,
}

// vcMask returns the VC eligibility mask for a class: its appClassVCMask
// entry under AppTraffic, and every configured VC otherwise.
func (c *Config) vcMask(class MsgClass) uint32 {
	if c.AppTraffic {
		if m := appClassVCMask[class]; m != 0 {
			return m
		}
	}
	return uint32(1)<<uint(c.VCs) - 1
}

// topology builds the topology object for this configuration.
func (c *Config) topology() topology.Topology {
	switch {
	case c.FBfly:
		return topology.NewFBfly(c.Rows, c.Cols, c.TilesPerNode, c.RegionDim)
	case c.Torus:
		return topology.NewTorus(c.Rows, c.Cols, c.TilesPerNode, c.RegionDim)
	default:
		return topology.New(c.Rows, c.Cols, c.TilesPerNode, c.RegionDim)
	}
}

// datelineMask returns the VC set for a torus dateline class: the lower
// half of the VCs before the dateline, the upper half after.
func (c *Config) datelineMask(crossed bool) uint32 {
	half := c.VCs / 2
	lower := uint32(1)<<uint(half) - 1
	if crossed {
		return (uint32(1)<<uint(c.VCs) - 1) &^ lower
	}
	return lower
}
