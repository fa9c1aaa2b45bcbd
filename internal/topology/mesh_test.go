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
		if m.ID(x, y) != id {
			t.Fatalf("XY/ID mismatch at %d", id)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	m := paper()
	for id := 0; id < m.Nodes(); id++ {
		for p := North; p <= West; p++ {
			n := m.Neighbor(id, p)
			if n < 0 {
				continue
			}
			if back := m.Neighbor(n, p.Opposite()); back != id {
				t.Fatalf("neighbor symmetry broken: %d -%v-> %d -%v-> %d", id, p, n, p.Opposite(), back)
			}
		}
	}
}

func TestOppositePanicsForLocal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Local.Opposite() should panic")
		}
	}()
	Local.Opposite()
}

// TestRouteProgress is the key routing property: from any node, following
// Route toward any destination strictly decreases the Manhattan distance
// and terminates with a Local ejection at the destination — so X-Y routing
// is livelock-free and minimal.
func TestRouteProgress(t *testing.T) {
	m := paper()
	f := func(a, b uint8) bool {
		src := int(a) % m.Nodes()
		dst := int(b) % m.Nodes()
		at := src
		for steps := 0; steps <= m.Hops(src, dst); steps++ {
			p := m.Route(at, dst)
			if at == dst {
				return p == Local
			}
			next := m.Neighbor(at, p)
			if next < 0 || m.Hops(next, dst) != m.Hops(at, dst)-1 {
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
				p := m.Route(at, dst)
				switch p {
				case North, South:
					movedY = true
				case East, West:
					if movedY {
						t.Fatalf("Y->X turn routing %d->%d at %d", src, dst, at)
					}
				}
				at = m.Neighbor(at, p)
			}
		}
	}
}

func TestRegionsPartition(t *testing.T) {
	m := paper()
	seen := make([]int, m.Nodes())
	for r := 0; r < m.Regions(); r++ {
		nodes := m.RegionNodes(r)
		if len(nodes) != 16 {
			t.Fatalf("region %d has %d nodes", r, len(nodes))
		}
		for _, n := range nodes {
			seen[n]++
			if m.Region(n) != r {
				t.Fatalf("node %d: Region()=%d but listed in %d", n, m.Region(n), r)
			}
		}
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d in %d regions", n, c)
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
