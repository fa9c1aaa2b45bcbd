package noc

import (
	"math/bits"
	"sync"

	"github.com/catnap-noc/catnap/internal/topology"
)

// Shared immutable precompute (see DESIGN.md §4i): the build products that
// depend only on the topology shape — the topology object itself (routing
// tables, adjacency) and the reverse-link feeder table credit returns walk
// — are identical for every subnet of every network with the same shape.
// Sweeps and explore campaigns instantiate hundreds of near-identical
// networks, so these are built once per (kind, rows, cols, concentration,
// region) shape in a process-lifetime cache and shared read-only across
// all networks and worker goroutines. Everything in the cache is written
// only during construction under LoadOrStore and never mutated afterwards;
// the race-enabled reset differential suite exercises concurrent readers.

// precompKey identifies one topology shape. The handful of shapes a
// campaign touches bounds the cache size; entries are a few KB each.
type precompKey struct {
	torus, fbfly               bool
	rows, cols, tiles, regions int
}

// precomp holds one shape's shared immutable build products.
type precomp struct {
	topo topology.Topology
	// feeder[node*radix+inPort] is the upstream (router, output port)
	// feeding that input port; ports with no feeder hold node == -1.
	// Read-only after construction.
	feeder []feederLink
}

var precompCache sync.Map // precompKey -> *precomp

// sharedPrecomp returns the cached precompute for cfg's topology shape,
// building and publishing it on first use. Callers must treat every part
// of the result as immutable.
func sharedPrecomp(cfg *Config) *precomp {
	k := precompKey{
		torus:   cfg.Torus,
		fbfly:   cfg.FBfly,
		rows:    cfg.Rows,
		cols:    cfg.Cols,
		tiles:   cfg.TilesPerNode,
		regions: cfg.RegionDim,
	}
	if v, ok := precompCache.Load(k); ok {
		return v.(*precomp)
	}
	topo := cfg.topology()
	p := &precomp{topo: topo, feeder: buildFeeder(topo, cfg.Nodes())}
	v, _ := precompCache.LoadOrStore(k, p)
	return v.(*precomp)
}

// buildFeeder builds the reverse link table: for every router input port,
// the upstream (router, output port) that feeds it.
func buildFeeder(topo topology.Topology, nodes int) []feederLink {
	radix := topo.Radix()
	feeder := make([]feederLink, nodes*radix)
	for i := range feeder {
		feeder[i] = feederLink{node: -1}
	}
	for n := 0; n < nodes; n++ {
		for p := 0; p < radix-1; p++ {
			if peer, peerPort, ok := topo.Link(n, p); ok {
				feeder[peer*radix+peerPort] = feederLink{node: int32(n), port: uint16(p)}
			}
		}
	}
	return feeder
}

// resetSlice returns s resized to n elements with every element zeroed,
// reusing the backing array when it is large enough. The reset paths use
// it for every per-run slab: a shape-compatible reset reuses all of them.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s) // bulk typed memclr: one barrier sweep, not one per element
	return s
}

// reviveSlice returns s resized to n elements with existing contents
// preserved (so reusable sub-structures such as warmed rings survive),
// growing only when the capacity is short.
// Elements revived from the capacity tail keep whatever a previous, larger
// shape left there; callers reset every element afterwards.
func reviveSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([]T, n)
	copy(grown, s)
	return grown
}

// resetWheel returns a staged-event wheel resized to size slots with every
// slot emptied. Slot contents are zeroed before truncation so stale
// entries (which hold *Packet references) do not pin the previous run's
// packets, and warmed slot capacity is kept.
func resetWheel[T any](w [][]T, size int) [][]T {
	w = reviveSlice(w, size)
	for i := range w {
		clear(w[i][:cap(w[i])])
		w[i] = w[i][:0]
	}
	return w
}

// pow2Ceil returns the least power of two >= n, for n >= 1. Wheels take
// this size so that a cycle's slot is a mask, not a division.
func pow2Ceil(n int) int { return 1 << bits.Len(uint(n-1)) }
