// Package topology models the router grids the paper's networks are
// built on: the concentrated 2-D mesh used throughout the paper, the
// torus, and the flattened butterfly that §2.2 and §8 point to. All three
// share one grid — a Rows×Cols array of routers, each concentrating
// TilesPerNode processor tiles behind a shared network interface, cut
// into square congestion-detection regions — and differ only in their
// links and routing rules.
//
// Node identifiers are router indices in row-major order:
//
//	id = y*Cols + x,  x in [0,Cols), y in [0,Rows)
//
// Tile (core) identifiers map onto nodes by simple concentration:
// tile t lives at node t/TilesPerNode.
package topology

import "fmt"

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
	// converts a node id to grid coordinates.
	Nodes() int
	Rows() int
	Cols() int
	XY(id int) (x, y int)

	// Tiles and NodeOfTile describe the concentration.
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

	// Hops is the minimal router-to-router hop count, in closed form: the
	// independent oracle route-progress and zero-load latency checks
	// compare RoutePort against.
	Hops(a, b int) int

	// WrapsPort reports whether the link leaving node via port crosses a
	// ring dateline (torus only; false elsewhere). Packets crossing it
	// move to the upper dateline VC class.
	WrapsPort(node, port int) bool

	// Region partitions the routers for the congestion OR networks.
	Region(node int) int
	Regions() int
}

// grid is the router arrangement every topology shares, embedded by Mesh
// and FBfly. The zero value is not usable; build one with newGrid.
type grid struct {
	rows, cols   int
	tilesPerNode int
	regionDim    int // side of the square congestion regions, in routers
	// xy[id] is node id's (x, y), built once by newGrid: routing reads
	// both nodes' coordinates on every head-flit hop, and a table load
	// costs less than the division it replaces. Node ids and coordinates
	// fit int32 for every grid a valid network config builds.
	xy [][2]int32
}

// newGrid returns a rows×cols grid with the given concentration. regionDim
// is the side length of the square congestion-detection regions (the
// paper partitions the 8×8 mesh into four 4×4 regions); it must divide
// both rows and cols. newGrid panics on invalid dimensions, as a topology
// is static experiment configuration, not runtime input.
func newGrid(rows, cols, tilesPerNode, regionDim int) grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: invalid grid %dx%d", rows, cols))
	}
	if tilesPerNode <= 0 {
		panic(fmt.Sprintf("topology: invalid concentration %d", tilesPerNode))
	}
	if regionDim <= 0 || rows%regionDim != 0 || cols%regionDim != 0 {
		panic(fmt.Sprintf("topology: region dim %d does not tile %dx%d", regionDim, rows, cols))
	}
	g := grid{rows: rows, cols: cols, tilesPerNode: tilesPerNode, regionDim: regionDim}
	g.xy = make([][2]int32, rows*cols)
	for id := range g.xy {
		g.xy[id] = [2]int32{int32(id % cols), int32(id / cols)}
	}
	return g
}

// Rows returns the number of router rows.
func (g *grid) Rows() int { return g.rows }

// Cols returns the number of router columns.
func (g *grid) Cols() int { return g.cols }

// Nodes returns the number of routers (equivalently, network nodes).
func (g *grid) Nodes() int { return g.rows * g.cols }

// Tiles returns the total number of processor tiles (cores).
func (g *grid) Tiles() int { return g.Nodes() * g.tilesPerNode }

// NodeOfTile returns the node a tile's traffic enters the network at.
func (g *grid) NodeOfTile(tile int) int { return tile / g.tilesPerNode }

// XY returns the grid coordinates of node id.
func (g *grid) XY(id int) (x, y int) {
	c := g.xy[id]
	return int(c[0]), int(c[1])
}

// id returns the node at grid coordinates (x, y).
func (g *grid) id(x, y int) int { return y*g.cols + x }

// Region returns the congestion-detection region index of node id.
// Regions tile the grid in row-major order; the paper's 8×8 mesh with
// regionDim 4 has four regions of 16 routers each.
func (g *grid) Region(id int) int {
	x, y := g.XY(id)
	return (y/g.regionDim)*(g.cols/g.regionDim) + x/g.regionDim
}

// Regions returns the number of congestion-detection regions.
func (g *grid) Regions() int {
	return (g.rows / g.regionDim) * (g.cols / g.regionDim)
}
