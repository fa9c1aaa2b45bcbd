package topology

import (
	"testing"
	"testing/quick"
)

func TestFBflyBasics(t *testing.T) {
	f := NewFBfly(8, 8, 4, 4)
	if f.Radix() != 15 {
		t.Fatalf("radix = %d, want 15 (7 row + 7 col + local)", f.Radix())
	}
	if f.Nodes() != 64 || f.Tiles() != 256 || f.Regions() != 4 {
		t.Fatalf("nodes/tiles/regions = %d/%d/%d", f.Nodes(), f.Tiles(), f.Regions())
	}
	if f.Name() != "fbfly" {
		t.Fatal("name")
	}
}

// TestFBflyLinkSymmetry: following a link and then the peer's reverse
// port must return to the origin — the property the credit-return tables
// depend on.
func TestFBflyLinkSymmetry(t *testing.T) {
	f := NewFBfly(8, 8, 4, 4)
	for node := 0; node < f.Nodes(); node++ {
		for p := 0; p < f.Radix()-1; p++ {
			peer, peerPort, ok := f.Link(node, p)
			if !ok {
				t.Fatalf("node %d port %d: no link", node, p)
			}
			back, backPort, ok := f.Link(peer, peerPort)
			if !ok || back != node || backPort != p {
				t.Fatalf("asymmetric link: %d:%d -> %d:%d -> %d:%d", node, p, peer, peerPort, back, backPort)
			}
		}
		if _, _, ok := f.Link(node, f.Radix()-1); ok {
			t.Fatalf("local port of node %d has a link", node)
		}
	}
}

// TestFBflyLinksDistinct: each router's links reach every row and column
// peer exactly once.
func TestFBflyLinksDistinct(t *testing.T) {
	f := NewFBfly(4, 6, 4, 2)
	for node := 0; node < f.Nodes(); node++ {
		seen := map[int]bool{}
		for p := 0; p < f.Radix()-1; p++ {
			peer, _, ok := f.Link(node, p)
			if !ok || peer == node || seen[peer] {
				t.Fatalf("node %d port %d: peer %d (ok=%v, dup=%v)", node, p, peer, ok, seen[peer])
			}
			seen[peer] = true
			nx, ny := f.XY(node)
			px, py := f.XY(peer)
			if nx != px && ny != py {
				t.Fatalf("node %d links to %d outside its row/column", node, peer)
			}
		}
		if len(seen) != f.Radix()-1 {
			t.Fatalf("node %d reaches %d peers, want %d", node, len(seen), f.Radix()-1)
		}
	}
}

// TestFBflyRouting: every pair is reached in Hops() steps (≤2) with
// dimension order (row first).
func TestFBflyRouting(t *testing.T) {
	f := NewFBfly(8, 8, 4, 4)
	local := f.Radix() - 1
	check := func(a, b uint8) bool {
		src := int(a) % f.Nodes()
		dst := int(b) % f.Nodes()
		at := src
		hops := 0
		for at != dst {
			p := f.RoutePort(at, dst)
			if p == local {
				return false // stuck
			}
			peer, _, ok := f.Link(at, p)
			if !ok {
				return false
			}
			// Dimension order: once we take a column hop, the column must
			// already match... row hop first means after hop 1 either
			// column matches or we're done.
			at = peer
			hops++
			if hops > 2 {
				return false
			}
		}
		return hops == f.Hops(src, dst) && f.RoutePort(at, dst) == local
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFBflyHops(t *testing.T) {
	f := NewFBfly(8, 8, 4, 4)
	if h := f.Hops(0, 63); h != 2 {
		t.Errorf("corner hops = %d, want 2", h)
	}
	if h := f.Hops(0, 7); h != 1 {
		t.Errorf("same-row hops = %d, want 1", h)
	}
	if h := f.Hops(0, 56); h != 1 {
		t.Errorf("same-column hops = %d, want 1", h)
	}
	if h := f.Hops(5, 5); h != 0 {
		t.Errorf("self hops = %d", h)
	}
}

func TestFBflyPanicsOnTinyArray(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("1x4 flattened butterfly should panic")
		}
	}()
	NewFBfly(1, 4, 4, 1)
}
