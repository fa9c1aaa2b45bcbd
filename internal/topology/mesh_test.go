package topology

import (
	"testing"
	"testing/quick"
)

func paper() *Mesh { return New(8, 8, 4, 4) }

func TestBasics(t *testing.T) {
	m := paper()
	if m.Nodes() != 64 || m.Tiles() != 256 || m.Regions() != 4 {
		t.Fatalf("nodes=%d tiles=%d regions=%d", m.Nodes(), m.Tiles(), m.Regions())
	}
	if m.NodeOfTile(0) != 0 || m.NodeOfTile(3) != 0 || m.NodeOfTile(4) != 1 || m.NodeOfTile(255) != 63 {
		t.Error("tile concentration mapping wrong")
	}
}

func TestXYRoundTrip(t *testing.T) {
	m := paper()
	for id := 0; id < m.Nodes(); id++ {
		x, y := m.XY(id)
		if m.id(x, y) != id {
			t.Fatalf("XY/ID mismatch at %d", id)
		}
	}
}

// TestNeighborSymmetry: a mesh link arrives on the opposite port, and the
// link back from there returns to the origin.
func TestNeighborSymmetry(t *testing.T) {
	m := paper()
	for id := 0; id < m.Nodes(); id++ {
		for p := North; p <= West; p++ {
			n, np, ok := m.Link(id, int(p))
			if !ok {
				continue
			}
			if np != int(p.opposite()) {
				t.Fatalf("%d -%v-> %d arrives on %v, want %v", id, p, n, Port(np), p.opposite())
			}
			if back, _, ok := m.Link(n, np); !ok || back != id {
				t.Fatalf("neighbor symmetry broken: %d -%v-> %d -%v-> %d", id, p, n, Port(np), back)
			}
		}
	}
}

func TestOppositePanicsForLocal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Local.opposite() should panic")
		}
	}()
	Local.opposite()
}

// TestRouteProgress is the key routing property: from any node, following
// RoutePort toward any destination strictly decreases the Manhattan distance
// and terminates with a Local ejection at the destination — so X-Y routing
// is livelock-free and minimal.
func TestRouteProgress(t *testing.T) {
	m := paper()
	f := func(a, b uint8) bool {
		src := int(a) % m.Nodes()
		dst := int(b) % m.Nodes()
		at := src
		for steps := 0; steps <= m.Hops(src, dst); steps++ {
			p := m.RoutePort(at, dst)
			if at == dst {
				return p == int(Local)
			}
			next, _, ok := m.Link(at, p)
			if !ok || m.Hops(next, dst) != m.Hops(at, dst)-1 {
				return false
			}
			at = next
		}
		return at == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestXYDimensionOrder: X-Y routing never turns from Y back to X.
func TestXYDimensionOrder(t *testing.T) {
	m := paper()
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			at := src
			movedY := false
			for at != dst {
				p := Port(m.RoutePort(at, dst))
				switch p {
				case North, South:
					movedY = true
				case East, West:
					if movedY {
						t.Fatalf("Y->X turn routing %d->%d at %d", src, dst, at)
					}
				}
				at, _, _ = m.Link(at, int(p))
			}
		}
	}
}

// TestRegionsPartition: the paper's 8x8 mesh splits into four 4x4
// regions, numbered in row-major order.
func TestRegionsPartition(t *testing.T) {
	m := paper()
	size := make([]int, m.Regions())
	for n := 0; n < m.Nodes(); n++ {
		x, y := m.XY(n)
		r := m.Region(n)
		if want := (y/4)*2 + x/4; r != want {
			t.Fatalf("node %d at (%d,%d): Region()=%d, want %d", n, x, y, r, want)
		}
		size[r]++
	}
	for r, c := range size {
		if c != 16 {
			t.Fatalf("region %d has %d nodes", r, c)
		}
	}
}

func TestRegion64Core(t *testing.T) {
	m := New(4, 4, 4, 2)
	if m.Regions() != 4 {
		t.Fatalf("4x4/2 mesh regions = %d, want 4", m.Regions())
	}
}

func TestNewPanicsOnBadRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with non-tiling region should panic")
		}
	}()
	New(8, 8, 4, 3)
}

func TestHops(t *testing.T) {
	m := paper()
	if h := m.Hops(0, 63); h != 14 {
		t.Errorf("corner-to-corner hops = %d, want 14", h)
	}
	if h := m.Hops(5, 5); h != 0 {
		t.Errorf("self hops = %d", h)
	}
}

func TestPortString(t *testing.T) {
	names := map[Port]string{North: "N", East: "E", South: "S", West: "W", Local: "L"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
