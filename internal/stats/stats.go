// Package stats provides the measurement machinery the evaluation relies
// on: streaming latency accumulators with percentiles, and windowed
// time-series samplers for the telemetry collector's per-window series
// (fig12's windows are the simulator's StartMeasure/StopMeasure pairs).
// Compensated sleep cycles are derived by the network from its routers'
// sleep timestamps (noc.Network.CompensatedSleepCycles).
package stats

import "slices"

// Latency accumulates a distribution of integer cycle latencies. It keeps
// an exact count and sum plus a capped reservoir for percentiles;
// for the sample sizes the experiments produce (≤ a few million packets)
// the reservoir is effectively exact.
type Latency struct {
	count int64
	sum   float64
	// samples is the reservoir. It starts empty and grows with the
	// observations up to limit, so a short run pays for the samples it
	// takes rather than for the limit.
	samples []int32
	limit   int
	every   int64 // record one of every `every` observations
	// sorted caches the sorted reservoir between Observe calls; the sweep
	// progress path queries several percentiles per point, so sorting once
	// per quiescent state instead of once per query matters. Observe and
	// Reset clear sortedOK; the buffer is kept across Reset so a reused
	// accumulator sorts into warm memory.
	sorted   []int32
	sortedOK bool
}

// NewLatency returns an empty accumulator that reservoir-samples at most
// maxSamples observations for percentile queries. maxSamples <= 0 selects a
// default of 1<<16.
func NewLatency(maxSamples int) *Latency {
	if maxSamples <= 0 {
		maxSamples = 1 << 16
	}
	return &Latency{limit: maxSamples, every: 1}
}

// Reset empties the accumulator in place, keeping the reservoir's backing
// array so a reused simulator observes into warm memory.
func (l *Latency) Reset() {
	l.count = 0
	l.sum = 0
	l.samples = l.samples[:0]
	l.every = 1
	l.sorted = l.sorted[:0]
	l.sortedOK = false
}

// Observe records one latency in cycles.
func (l *Latency) Observe(cycles int64) {
	l.count++
	l.sum += float64(cycles)
	if l.count%l.every == 0 {
		l.sortedOK = false
		if len(l.samples) >= l.limit {
			// Decimate: keep every other sample and double the stride. This
			// keeps a uniform systematic sample without per-observation RNG.
			// (Only a limit of 1 ever reaches past the limit: halving one
			// sample keeps it.)
			keep := l.samples[:0]
			for i := 0; i < len(l.samples); i += 2 {
				keep = append(keep, l.samples[i])
			}
			l.samples = keep
			l.every *= 2
		} else if len(l.samples) == cap(l.samples) {
			// Grow by doubling, but exactly up to the limit: append's own
			// growth would overshoot it.
			grown := make([]int32, len(l.samples), min(max(2*cap(l.samples), 64), l.limit))
			copy(grown, l.samples)
			l.samples = grown
		}
		l.samples = append(l.samples, int32(cycles))
	}
}

// Mean returns the average latency, or 0 with no observations.
func (l *Latency) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return l.sum / float64(l.count)
}

// Percentile returns the p-th percentile (p in [0,100]) from the sampled
// reservoir, or 0 with no observations.
func (l *Latency) Percentile(p float64) int64 {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sortedOK {
		// Copy rather than sort in place: samples is a systematic sample
		// whose append order the decimation pass in Observe relies on.
		l.sorted = append(l.sorted[:0], l.samples...)
		slices.Sort(l.sorted)
		l.sortedOK = true
	}
	s := l.sorted
	idx := int(p / 100 * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return int64(s[idx])
}

// Series is a windowed time-series sampler: it accumulates a value over
// fixed-width cycle windows and records one point per window. The
// telemetry collector keeps one per windowed metric.
type Series struct {
	window  int64
	acc     float64
	nextCut int64
	points  []Point
}

// Point is one (window-end cycle, value) sample.
type Point struct {
	Cycle int64
	Value float64
}

// NewSeries returns a sampler with the given window width in cycles.
func NewSeries(window int64) *Series {
	if window <= 0 {
		panic("stats: series window must be positive")
	}
	return &Series{window: window, nextCut: window}
}

// Add accumulates v into the current window, closing windows as the clock
// passes their boundaries. Calls must have non-decreasing now.
func (s *Series) Add(now int64, v float64) {
	s.advance(now)
	s.acc += v
}

// AddSpan accumulates v once per cycle over the half-open span [from, to),
// exactly as `for c := from; c < to; c++ { s.Add(c, v) }` would, but in
// O(windows touched): idle fast-forward summarizes skipped spans with it.
// The per-window bulk addition `acc += n*v` is exact (not merely close)
// for the integer-valued v the idle telemetry samples consist of; spans
// must respect the same non-decreasing clock as Add.
func (s *Series) AddSpan(from, to int64, v float64) {
	for from < to {
		s.advance(from)
		n := s.nextCut - from // cycles of the span inside the current window
		if n > to-from {
			n = to - from
		}
		s.acc += float64(float64(n) * v)
		from += n
	}
}

// Finish closes the window containing `now` and returns all points.
func (s *Series) Finish(now int64) []Point {
	s.advance(now + s.window)
	return s.points
}

func (s *Series) advance(now int64) {
	for now >= s.nextCut {
		s.points = append(s.points, Point{Cycle: s.nextCut, Value: s.acc})
		s.acc = 0
		s.nextCut += s.window
	}
}

// Points returns the closed windows so far.
func (s *Series) Points() []Point { return s.points }
