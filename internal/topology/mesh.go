// Package topology models the concentrated 2-D mesh used throughout the
// paper: a Rows×Cols grid of routers, each concentrating TilesPerNode
// processor tiles behind a shared network interface, with deterministic
// dimension-ordered (X-Y) routing and 4×4 congestion-detection regions.
//
// Node identifiers are router indices in row-major order:
//
//	id = y*Cols + x,  x in [0,Cols), y in [0,Rows)
//
// Tile (core) identifiers map onto nodes by simple concentration:
// tile t lives at node t/TilesPerNode.
package topology

import "fmt"

// Port numbers a router's five ports. The first four connect to mesh
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
	switch p {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// Opposite returns the port on the neighbouring router that a link from p
// arrives at: a flit leaving North arrives on its neighbour's South port.
// Opposite panics for Local, which has no peer router.
func (p Port) Opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	panic("topology: Local port has no opposite")
}

// Mesh is an immutable description of a concentrated mesh or torus.
// Construct one with New or NewTorus; the zero value is not usable.
type Mesh struct {
	rows, cols   int
	tilesPerNode int
	regionRows   int // region height in routers
	regionCols   int // region width in routers
	torus        bool
	// xy[id] is node id's (x, y), built once by New: routing reads both
	// nodes' coordinates on every head-flit hop, and a table load costs
	// less than the division it replaces. Node ids and coordinates fit
	// int32 for every mesh a valid network config builds.
	xy [][2]int32
}

// New returns a concentrated mesh with the given dimensions. regionDim is
// the side length of the square congestion-detection regions (the paper
// partitions the 8×8 mesh into four 4×4 regions); it must divide both rows
// and cols. New panics on invalid dimensions, as a topology is static
// experiment configuration, not runtime input.
func New(rows, cols, tilesPerNode, regionDim int) *Mesh {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", rows, cols))
	}
	if tilesPerNode <= 0 {
		panic(fmt.Sprintf("topology: invalid concentration %d", tilesPerNode))
	}
	if regionDim <= 0 || rows%regionDim != 0 || cols%regionDim != 0 {
		panic(fmt.Sprintf("topology: region dim %d does not tile %dx%d mesh", regionDim, rows, cols))
	}
	m := &Mesh{rows: rows, cols: cols, tilesPerNode: tilesPerNode, regionRows: regionDim, regionCols: regionDim}
	m.xy = make([][2]int32, rows*cols)
	for id := range m.xy {
		m.xy[id] = [2]int32{int32(id % cols), int32(id / cols)}
	}
	return m
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

// Torus reports whether the topology has wraparound links.
func (m *Mesh) Torus() bool { return m.torus }

// Rows returns the number of router rows.
func (m *Mesh) Rows() int { return m.rows }

// Cols returns the number of router columns.
func (m *Mesh) Cols() int { return m.cols }

// Nodes returns the number of routers (equivalently, network nodes).
func (m *Mesh) Nodes() int { return m.rows * m.cols }

// TilesPerNode returns the concentration factor.
func (m *Mesh) TilesPerNode() int { return m.tilesPerNode }

// Tiles returns the total number of processor tiles (cores).
func (m *Mesh) Tiles() int { return m.Nodes() * m.tilesPerNode }

// NodeOfTile returns the node a tile's traffic enters the network at.
func (m *Mesh) NodeOfTile(tile int) int { return tile / m.tilesPerNode }

// XY returns the grid coordinates of node id.
func (m *Mesh) XY(id int) (x, y int) {
	c := m.xy[id]
	return int(c[0]), int(c[1])
}

// ID returns the node at grid coordinates (x, y).
func (m *Mesh) ID(x, y int) int { return y*m.cols + x }

// Neighbor returns the node adjacent to id in direction p, or -1 if the
// link would leave the mesh edge. p must be a mesh direction, not Local.
func (m *Mesh) Neighbor(id int, p Port) int {
	x, y := m.XY(id)
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
		panic("topology: Neighbor of Local port")
	}
	if m.torus {
		x = (x + m.cols) % m.cols
		y = (y + m.rows) % m.rows
		return m.ID(x, y)
	}
	if x < 0 || x >= m.cols || y < 0 || y >= m.rows {
		return -1
	}
	return m.ID(x, y)
}

// Wraps reports whether the link leaving id in direction p is a torus
// wraparound link — the dateline of its ring. Packets crossing it move to
// the higher dateline VC class.
func (m *Mesh) Wraps(id int, p Port) bool {
	if !m.torus {
		return false
	}
	x, y := m.XY(id)
	switch p {
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

// Route returns the output port a flit at node `at` destined for node `dst`
// must take under deterministic X-Y routing: fully traverse the X dimension
// first, then Y, then eject. X-Y routing on a mesh is deadlock-free, which
// is why the paper (and this reproduction) needs virtual channels only for
// protocol-level deadlock avoidance, not routing deadlock.
func (m *Mesh) Route(at, dst int) Port {
	ax, ay := m.XY(at)
	dx, dy := m.XY(dst)
	if m.torus {
		if dx != ax {
			// Shortest direction around the X ring; ties go East.
			if fwd := (dx - ax + m.cols) % m.cols; fwd <= m.cols/2 {
				return East
			}
			return West
		}
		if dy != ay {
			if fwd := (dy - ay + m.rows) % m.rows; fwd <= m.rows/2 {
				return South
			}
			return North
		}
		return Local
	}
	switch {
	case dx > ax:
		return East
	case dx < ax:
		return West
	case dy > ay:
		return South
	case dy < ay:
		return North
	default:
		return Local
	}
}

// Hops returns the minimal hop count between two nodes (Manhattan
// distance, ring distance on a torus); used by zero-load latency checks
// in tests.
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

// Region returns the congestion-detection region index of node id. Regions
// tile the mesh in row-major order; the paper's 8×8 mesh with regionDim 4
// has four regions of 16 routers each.
func (m *Mesh) Region(id int) int {
	x, y := m.XY(id)
	regionsPerRow := m.cols / m.regionCols
	return (y/m.regionRows)*regionsPerRow + x/m.regionCols
}

// Regions returns the number of congestion-detection regions.
func (m *Mesh) Regions() int {
	return (m.rows / m.regionRows) * (m.cols / m.regionCols)
}

// RegionNodes returns the node ids belonging to region r, in ascending
// order. The result is freshly allocated.
func (m *Mesh) RegionNodes(r int) []int {
	regionsPerRow := m.cols / m.regionCols
	ry := r / regionsPerRow
	rx := r % regionsPerRow
	nodes := make([]int, 0, m.regionRows*m.regionCols)
	for y := ry * m.regionRows; y < (ry+1)*m.regionRows; y++ {
		for x := rx * m.regionCols; x < (rx+1)*m.regionCols; x++ {
			nodes = append(nodes, m.ID(x, y))
		}
	}
	return nodes
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
