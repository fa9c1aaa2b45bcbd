package topology

import "fmt"

// Port numbers a mesh router's five ports. The first four connect to mesh
// neighbours; Local connects to the node's network interface.
type Port int

// Router port indices. NumPorts is the radix of every router in the mesh
// (four mesh directions plus the local NI port).
const (
	North Port = iota
	East
	South
	West
	Local
	NumPorts
)

// String returns the conventional single-letter compass name.
func (p Port) String() string {
	if p >= North && p < NumPorts {
		return "NESWL"[p : p+1]
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// opposite returns the port on the neighbouring router that a link from p
// arrives at: a flit leaving North arrives on its neighbour's South port,
// two places round the compass. opposite panics for Local, which has no
// peer router.
func (p Port) opposite() Port {
	if p < North || p > West {
		panic("topology: Local port has no opposite")
	}
	return (p + 2) % 4
}

// Mesh is an immutable description of a concentrated mesh or torus.
// Construct one with New or NewTorus; the zero value is not usable.
type Mesh struct {
	grid
	torus bool
}

// New returns a concentrated mesh with the given dimensions (see newGrid
// for regionDim). New panics on invalid dimensions.
func New(rows, cols, tilesPerNode, regionDim int) *Mesh {
	return &Mesh{grid: newGrid(rows, cols, tilesPerNode, regionDim)}
}

// NewTorus returns a concentrated 2-D torus: the same grid as New but
// with wraparound links in both dimensions and shortest-direction
// dimension-ordered routing. The wrap links close rings, so wormhole
// routing needs dateline virtual-channel classes for deadlock freedom —
// the network layer enforces that (Config.Validate requires ≥2 VCs and no
// custom class masks in torus mode).
func NewTorus(rows, cols, tilesPerNode, regionDim int) *Mesh {
	m := New(rows, cols, tilesPerNode, regionDim)
	m.torus = true
	return m
}

// Name implements Topology.
func (m *Mesh) Name() string {
	if m.torus {
		return "torus"
	}
	return "cmesh"
}

// Radix implements Topology: four mesh directions plus the local port.
func (m *Mesh) Radix() int { return int(NumPorts) }

// Link implements Topology: the neighbour in direction port, arriving on
// its opposite port. A mesh edge has no link; a torus wraps around.
func (m *Mesh) Link(node, port int) (peer, peerPort int, ok bool) {
	p := Port(port)
	x, y := m.XY(node)
	switch p {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	default:
		return 0, 0, false
	}
	if m.torus {
		x = (x + m.cols) % m.cols
		y = (y + m.rows) % m.rows
	} else if x < 0 || x >= m.cols || y < 0 || y >= m.rows {
		return 0, 0, false
	}
	return m.id(x, y), int(p.opposite()), true
}

// WrapsPort implements Topology: it reports whether the link leaving node
// via port is a torus wraparound link — the dateline of its ring. Packets
// crossing it move to the higher dateline VC class.
func (m *Mesh) WrapsPort(node, port int) bool {
	if !m.torus {
		return false
	}
	x, y := m.XY(node)
	switch Port(port) {
	case East:
		return x == m.cols-1
	case West:
		return x == 0
	case North:
		return y == 0
	case South:
		return y == m.rows-1
	default:
		return false
	}
}

// RoutePort implements Topology with deterministic X-Y routing: fully
// traverse the X dimension first, then Y, then eject. X-Y routing on a
// mesh is deadlock-free, which is why the paper (and this reproduction)
// needs virtual channels only for protocol-level deadlock avoidance, not
// routing deadlock. On a torus each dimension goes the shortest way round
// its ring.
func (m *Mesh) RoutePort(at, dst int) int {
	ax, ay := m.XY(at)
	dx, dy := m.XY(dst)
	if m.torus {
		if dx != ax {
			// Shortest direction around the X ring; ties go East.
			if fwd := (dx - ax + m.cols) % m.cols; fwd <= m.cols/2 {
				return int(East)
			}
			return int(West)
		}
		if dy != ay {
			if fwd := (dy - ay + m.rows) % m.rows; fwd <= m.rows/2 {
				return int(South)
			}
			return int(North)
		}
		return int(Local)
	}
	switch {
	case dx > ax:
		return int(East)
	case dx < ax:
		return int(West)
	case dy > ay:
		return int(South)
	case dy < ay:
		return int(North)
	default:
		return int(Local)
	}
}

// Hops implements Topology: Manhattan distance, ring distance on a torus.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := m.XY(a)
	bx, by := m.XY(b)
	dx, dy := abs(ax-bx), abs(ay-by)
	if m.torus {
		if alt := m.cols - dx; alt < dx {
			dx = alt
		}
		if alt := m.rows - dy; alt < dy {
			dy = alt
		}
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
