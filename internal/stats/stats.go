// Package stats provides the measurement machinery the evaluation relies
// on: streaming latency accumulators with percentiles, windowed time-series
// samplers (for the bursty-traffic ramp-up study), and the compensated
// sleep cycle (CSC) tracker defined by Hu et al. and used by the paper to
// quantify profitable power gating independent of the power model.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Latency accumulates a distribution of integer cycle latencies. It keeps
// exact moments plus a capped reservoir for percentiles; for the sample
// sizes the experiments produce (≤ a few million packets) the reservoir is
// effectively exact.
type Latency struct {
	count int64
	sum   float64
	sumSq float64
	min   int64
	max   int64
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
	return &Latency{min: math.MaxInt64, limit: maxSamples, every: 1}
}

// Reset empties the accumulator in place, keeping the reservoir's backing
// array so a reused simulator observes into warm memory.
func (l *Latency) Reset() {
	l.count = 0
	l.sum = 0
	l.sumSq = 0
	l.min = math.MaxInt64
	l.max = 0
	l.samples = l.samples[:0]
	l.every = 1
	l.sorted = l.sorted[:0]
	l.sortedOK = false
}

// Observe records one latency in cycles.
func (l *Latency) Observe(cycles int64) {
	l.count++
	f := float64(cycles)
	l.sum += f
	l.sumSq += f * f
	if cycles < l.min {
		l.min = cycles
	}
	if cycles > l.max {
		l.max = cycles
	}
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

// Count returns the number of observations.
func (l *Latency) Count() int64 { return l.count }

// Mean returns the average latency, or 0 with no observations.
func (l *Latency) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return l.sum / float64(l.count)
}

// StdDev returns the population standard deviation.
func (l *Latency) StdDev() float64 {
	if l.count == 0 {
		return 0
	}
	m := l.Mean()
	v := l.sumSq/float64(l.count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation, or 0 with no observations.
func (l *Latency) Min() int64 {
	if l.count == 0 {
		return 0
	}
	return l.min
}

// Max returns the largest observation.
func (l *Latency) Max() int64 { return l.max }

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

// String summarises the distribution for logs and CLI output.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		l.count, l.Mean(), l.Percentile(50), l.Percentile(99), l.max)
}

// Series is a windowed time-series sampler: it accumulates a value over
// fixed-width cycle windows and records one point per window. Figure 12
// samples network throughput every 50 cycles; Series is that instrument.
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
		s.acc += float64(n) * v
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

// Window returns the configured window width.
func (s *Series) Window() int64 { return s.window }

// CSC tracks compensated sleep cycles for one power-gated component. Per
// the paper (following Hu et al.), each sleep period of length L
// contributes max(0, L − T_breakeven) compensated cycles: the cycles during
// which the component genuinely saved leakage after paying the energy cost
// of switching the sleep transistor. The tracker also counts transitions,
// which the power model charges for.
type CSC struct {
	breakeven  int64
	sleepStart int64
	asleep     bool
	// creditedComp/creditedRaw track what the open period has already
	// contributed to the totals, so Flush can accrue mid-period without
	// double counting or phantom transitions.
	creditedComp int64
	creditedRaw  int64
	compensated  int64
	rawSleep     int64
	transitions  int64
}

// NewCSC returns a tracker with the given break-even threshold in cycles.
func NewCSC(breakeven int64) *CSC {
	return &CSC{breakeven: breakeven}
}

// Reset returns the tracker to its just-constructed state with the given
// break-even threshold, as NewCSC would.
func (c *CSC) Reset(breakeven int64) {
	*c = CSC{breakeven: breakeven}
}

// accrue brings the totals up to date with the open sleep period at now.
func (c *CSC) accrue(now int64) {
	total := now - c.sleepStart
	comp := total - c.breakeven
	if comp < 0 {
		comp = 0
	}
	c.compensated += comp - c.creditedComp
	c.rawSleep += total - c.creditedRaw
	c.creditedComp = comp
	c.creditedRaw = total
}

// Sleep records that the component entered the sleep state at cycle now.
// Calling Sleep while already asleep is a no-op.
func (c *CSC) Sleep(now int64) {
	if c.asleep {
		return
	}
	c.asleep = true
	c.sleepStart = now
	c.creditedComp = 0
	c.creditedRaw = 0
}

// Wake records that the component left the sleep state at cycle now,
// closing the current sleep period.
func (c *CSC) Wake(now int64) {
	if !c.asleep {
		return
	}
	c.accrue(now)
	c.asleep = false
	c.transitions++
}

// Flush accrues any open sleep period into the totals at cycle now
// without ending it: no transition is counted, and a later Wake (or
// another Flush) only adds the remainder. Measurement windows call it at
// their boundaries; it is idempotent at a fixed cycle.
func (c *CSC) Flush(now int64) {
	if c.asleep {
		c.accrue(now)
	}
}

// Compensated returns the total compensated sleep cycles.
func (c *CSC) Compensated() int64 { return c.compensated }

// RawSleep returns the total cycles spent asleep, uncompensated.
func (c *CSC) RawSleep() int64 { return c.rawSleep }

// Transitions returns the number of completed sleep→wake transitions; each
// one costs the power model T_breakeven cycles of leakage-equivalent
// energy.
func (c *CSC) Transitions() int64 { return c.transitions }

// Asleep reports whether the component is currently in a sleep period.
func (c *CSC) Asleep() bool { return c.asleep }
