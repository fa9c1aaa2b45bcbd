package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// topologyDigest hashes everything a topology answers through the
// Topology interface: its shape, every tile's node, and for every node
// its coordinates and region, every port's link and dateline flag, and
// every destination's route port and hop count.
func topologyDigest(topo Topology) string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	put("%s nodes=%d rows=%d cols=%d tiles=%d radix=%d regions=%d",
		topo.Name(), topo.Nodes(), topo.Rows(), topo.Cols(), topo.Tiles(), topo.Radix(), topo.Regions())
	for t := 0; t < topo.Tiles(); t++ {
		put("tile %d node %d", t, topo.NodeOfTile(t))
	}
	for n := 0; n < topo.Nodes(); n++ {
		x, y := topo.XY(n)
		put("node %d xy %d,%d region %d", n, x, y, topo.Region(n))
		for p := 0; p < topo.Radix(); p++ {
			peer, peerPort, ok := topo.Link(n, p)
			put("link %d:%d -> %d:%d ok=%v wraps=%v", n, p, peer, peerPort, ok, topo.WrapsPort(n, p))
		}
		for d := 0; d < topo.Nodes(); d++ {
			put("route %d->%d port %d hops %d", n, d, topo.RoutePort(n, d), topo.Hops(n, d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTopologyKnownAnswers pins a digest of every answer each topology
// gives, over shapes that cover the paper's 8x8 concentrated mesh,
// non-square and single-row grids, odd torus rings (where the
// shortest-direction tie-break matters) and non-square flattened
// butterflies. A refactor of the grid or the routing rules must leave
// every digest unchanged.
func TestTopologyKnownAnswers(t *testing.T) {
	cases := []struct {
		topo Topology
		want string
	}{
		{New(8, 8, 4, 4), "35f4c022fa5ac4f7387fddd99fbd62b6dd20fb024ad1c10283a7fe75ac4d5099"},
		{New(4, 4, 4, 2), "8a52647d9192054036fe30f39493dcb8b6373873c7336101919b1a37ec10214f"},
		{New(4, 2, 2, 2), "d81f6c66b65454eb8a98d9b3e1035c0d7a53a0ada116d45c653b7cc52f33dde2"},
		{New(1, 2, 1, 1), "8e837c460df07c22cc88ab6fc6fb666de7e329e4e1a3c5d0c3d9388b138981ec"},
		{NewTorus(8, 8, 4, 4), "9be4075bbee0f4abf118b4d18d7415cedb91f1b786ffc815fbb5ed3831692da2"},
		{NewTorus(4, 4, 4, 2), "894f9b667df9a071ccaa981ee88c0f8bbb168bfc3d40f585dbab4bd77edb36e2"},
		{NewTorus(3, 5, 1, 1), "a54a57a546c539d8b45a8a0859612bd2788af9d7d38f4e63fa5bfa4bb401c1fb"},
		{NewFBfly(8, 8, 4, 4), "05b436b459ea724e62d852e01e1147534223e2cd549a4d38e3bb366b7cfaac54"},
		{NewFBfly(4, 6, 2, 2), "3ae2af35e4e202e89ab4775807389e1b73e86c4006859b00b51e2d2dc8be56ec"},
		{NewFBfly(2, 4, 4, 2), "14c8e0f07fad84372d961273c866612f027609003121ff2d9969192f6123544b"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-%dx%d", c.topo.Name(), c.topo.Rows(), c.topo.Cols())
		if got := topologyDigest(c.topo); got != c.want {
			t.Errorf("%s: digest %s, want %s", name, got, c.want)
		}
	}
}
