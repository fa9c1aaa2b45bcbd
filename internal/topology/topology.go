package topology

// Topology abstracts the network graph so the router substrate works at
// any radix: the concentrated mesh and torus (radix 5) and the flattened
// butterfly (radix 2·(k−1)+1 for a k×k array). Ports are integers; by
// convention the local (NI) port is always the last one, Radix()−1.
//
// All implementations here are grid-arranged (routers at (x, y)
// coordinates), so XY/Rows/Cols are part of the interface — the traffic
// patterns, memory-controller placement, and split-chip experiments rely
// on them.
type Topology interface {
	// Name identifies the topology ("cmesh", "torus", "fbfly").
	Name() string

	// Nodes returns the router count; Rows/Cols its grid arrangement; XY
	// and IDAt convert between node ids and grid coordinates.
	Nodes() int
	Rows() int
	Cols() int
	XY(id int) (x, y int)
	IDAt(x, y int) int

	// TilesPerNode, Tiles and NodeOfTile describe the concentration.
	TilesPerNode() int
	Tiles() int
	NodeOfTile(tile int) int

	// Radix is the router port count, including the local port
	// (Radix()−1).
	Radix() int

	// Link resolves output port p of node to the peer router and the
	// peer's input port; ok is false when the port has no link (the
	// local port, or a mesh edge).
	Link(node, port int) (peer, peerPort int, ok bool)

	// RoutePort returns the output port a packet at `at` destined to
	// `dst` must take, and the local port at the destination. The
	// upstream router calls it for look-ahead routing.
	RoutePort(at, dst int) int

	// Hops is the minimal router-to-router hop count.
	Hops(a, b int) int

	// WrapsPort reports whether the link leaving node via port crosses a
	// ring dateline (torus only; false elsewhere). Packets crossing it
	// move to the upper dateline VC class.
	WrapsPort(node, port int) bool

	// Region partitions the routers for the congestion OR networks.
	Region(node int) int
	Regions() int
	RegionNodes(r int) []int
}

// --- Mesh adapter -----------------------------------------------------------

// Name implements Topology.
func (m *Mesh) Name() string {
	if m.torus {
		return "torus"
	}
	return "cmesh"
}

// IDAt implements Topology (ID under its interface name).
func (m *Mesh) IDAt(x, y int) int { return m.ID(x, y) }

// Radix implements Topology: four mesh directions plus the local port.
func (m *Mesh) Radix() int { return int(NumPorts) }

// Link implements Topology.
func (m *Mesh) Link(node, port int) (peer, peerPort int, ok bool) {
	p := Port(port)
	if p == Local {
		return 0, 0, false
	}
	n := m.Neighbor(node, p)
	if n < 0 {
		return 0, 0, false
	}
	return n, int(p.Opposite()), true
}

// RoutePort implements Topology.
func (m *Mesh) RoutePort(at, dst int) int { return int(m.Route(at, dst)) }

// WrapsPort implements Topology.
func (m *Mesh) WrapsPort(node, port int) bool { return m.Wraps(node, Port(port)) }

var _ Topology = (*Mesh)(nil)
