// Package noc is nodeterminism's golden test package; its import path
// puts it inside the analyzer's scope, and every construct the analyzer
// bans appears here next to its sanctioned counterpart.
package noc

import (
	"math/rand"
	"time"
)

// Tracer mirrors the simulator's callback-surface naming so the
// map-range tracer rule has a target.
type Tracer interface {
	Event(now int64, node int)
}

type sim struct {
	rng     *rand.Rand
	tracer  Tracer
	pending map[int]int
	total   int
}

func newSim() *sim {
	// Seeded constructors are the sanctioned use of math/rand.
	return &sim{rng: rand.New(rand.NewSource(42)), pending: map[int]int{}}
}

func (s *sim) clock() int64 {
	t := time.Now() // want `time\.Now reads the wall clock`
	_ = time.Since(time.Unix(0, 0)) // want `time\.Since reads the wall clock`
	return t.UnixNano()
}

func (s *sim) roll() int {
	if s.rng.Intn(2) == 0 { // method on a seeded *rand.Rand: allowed
		return 0
	}
	return rand.Intn(6) // want `global rand\.Intn bypasses the seeded sim\.RNG`
}

func (s *sim) spawn() {
	go s.drain() // want `go statement in a deterministic package`
}

// spawnAnnotated shows that no annotation licenses a goroutine.
//
//catnap:hotpath
func (s *sim) spawnAnnotated() {
	go func() { s.drain() }() // want `go statement in a deterministic package`
}

func (s *sim) drain() {}

func (s *sim) mapMutate() {
	for k, v := range s.pending {
		s.total += v // want `assignment to state outside a range over a map`
		_ = k
	}
}

func (s *sim) mapIncrement() {
	for k := range s.pending {
		_ = k
		s.total++ // want `mutation of state outside a range over a map`
	}
}

func (s *sim) mapTrace(now int64) {
	for k := range s.pending {
		s.tracer.Event(now, k) // want `tracer/policy callback inside a range over a map`
	}
}

func (s *sim) mapPtrCall() {
	for k := range s.pending {
		s.bump(k) // want `pointer-receiver call on state outside a range over a map`
	}
}

func (s *sim) bump(k int) { s.total += k }

func (s *sim) mapReadOnly() bool {
	for k := range s.pending {
		double := k * 2 // loop-local state: allowed
		if double > 10 {
			return true
		}
	}
	return false
}

func (s *sim) suppressed() {
	for k := range s.pending {
		//lint:ignore nodeterminism golden demonstration of the suppression path
		s.total += k
	}
}
