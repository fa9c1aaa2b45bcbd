package topology

import "fmt"

// FBfly is a two-dimensional flattened butterfly (Kim, Balfour, Dally,
// MICRO'07): routers sit on a rows×cols grid, and every router has a
// direct link to every other router in its row and in its column. With
// minimal dimension-ordered routing any packet needs at most two hops
// (one row hop, one column hop), at the cost of high radix:
// (cols−1)+(rows−1)+1 ports.
//
// The paper (§2.2) names the flattened butterfly as the high-radix
// alternative for scaling bandwidth and conjectures (§8) that multiple
// physical networks would benefit it too; this implementation lets the
// Catnap policies be evaluated on it.
//
// Port layout for a router at (x, y):
//
//	ports [0, cols−2]            row links, to columns ≠ x in ascending order
//	ports [cols−1, cols+rows−3]  column links, to rows ≠ y in ascending order
//	port  cols+rows−2            the local (NI) port
type FBfly struct {
	grid
}

// NewFBfly returns a rows×cols flattened butterfly with the given
// concentration and congestion-region size. It panics on invalid
// dimensions (static experiment configuration).
func NewFBfly(rows, cols, tilesPerNode, regionDim int) *FBfly {
	if rows < 2 || cols < 2 {
		panic(fmt.Sprintf("topology: flattened butterfly needs >=2x2 routers, got %dx%d", rows, cols))
	}
	return &FBfly{newGrid(rows, cols, tilesPerNode, regionDim)}
}

// Name implements Topology.
func (f *FBfly) Name() string { return "fbfly" }

// Radix implements Topology: all row peers, all column peers, local.
func (f *FBfly) Radix() int { return (f.cols - 1) + (f.rows - 1) + 1 }

// rowPortTo returns the output port at a router in column x that reaches
// column tx (tx != x).
func (f *FBfly) rowPortTo(x, tx int) int {
	if tx < x {
		return tx
	}
	return tx - 1
}

// colPortTo returns the output port at a router in row y that reaches
// row ty (ty != y).
func (f *FBfly) colPortTo(y, ty int) int {
	base := f.cols - 1
	if ty < y {
		return base + ty
	}
	return base + ty - 1
}

// Link implements Topology.
func (f *FBfly) Link(node, port int) (peer, peerPort int, ok bool) {
	x, y := f.XY(node)
	switch {
	case port < f.cols-1: // row link
		tx := port
		if tx >= x {
			tx++
		}
		return f.id(tx, y), f.rowPortTo(tx, x), true
	case port < f.Radix()-1: // column link
		ty := port - (f.cols - 1)
		if ty >= y {
			ty++
		}
		return f.id(x, ty), f.colPortTo(ty, y), true
	default: // local port
		return 0, 0, false
	}
}

// RoutePort implements Topology: dimension-ordered minimal routing, row
// (X) first, then column (Y). Row links only ever depend on column links
// ahead of them, so the channel dependency graph is acyclic and no
// dateline classes are needed.
func (f *FBfly) RoutePort(at, dst int) int {
	ax, ay := f.XY(at)
	dx, dy := f.XY(dst)
	switch {
	case dx != ax:
		return f.rowPortTo(ax, dx)
	case dy != ay:
		return f.colPortTo(ay, dy)
	default:
		return f.Radix() - 1
	}
}

// Hops implements Topology: at most one row and one column hop.
func (f *FBfly) Hops(a, b int) int {
	ax, ay := f.XY(a)
	bx, by := f.XY(b)
	h := 0
	if ax != bx {
		h++
	}
	if ay != by {
		h++
	}
	return h
}

// WrapsPort implements Topology: no datelines in a flattened butterfly.
func (f *FBfly) WrapsPort(node, port int) bool { return false }
