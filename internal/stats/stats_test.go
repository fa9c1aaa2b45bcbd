package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/catnap-noc/catnap/internal/sim"
)

func TestLatencyMoments(t *testing.T) {
	l := NewLatency(0)
	for i := int64(1); i <= 100; i++ {
		l.Observe(i)
	}
	if l.count != 100 {
		t.Fatalf("count = %d", l.count)
	}
	if m := l.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", m)
	}
	if p := l.Percentile(50); p < 45 || p > 55 {
		t.Errorf("p50 = %d", p)
	}
	if p := l.Percentile(100); p != 100 {
		t.Errorf("p100 = %d", p)
	}
}

func TestLatencyEmpty(t *testing.T) {
	l := NewLatency(0)
	if l.Mean() != 0 || l.Percentile(99) != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

// TestLatencyDecimation: the reservoir must survive observation counts far
// beyond its capacity and keep percentiles roughly correct.
func TestLatencyDecimation(t *testing.T) {
	l := NewLatency(1024)
	const n = 1 << 18
	for i := 0; i < n; i++ {
		l.Observe(int64(i % 1000))
	}
	if p := l.Percentile(50); p < 400 || p > 600 {
		t.Errorf("p50 after decimation = %d, want ~500", p)
	}
	if p := l.Percentile(99); p < 950 {
		t.Errorf("p99 after decimation = %d, want ~990", p)
	}
}

// TestLatencyKnownAnswers pins what a Latency reports after 200,000
// observations from a fixed RNG stream, at the default sample limit and
// at a limit that is not a power of two. Both runs decimate several
// times, so the values pin the reservoir's stride and which samples it
// keeps, not only the exact moments.
func TestLatencyKnownAnswers(t *testing.T) {
	type answers struct {
		count    int64
		mean     float64
		p50, p99 int64
	}
	for _, c := range []struct {
		limit int
		want  answers
	}{
		{0, answers{200000, 47.88828, 38, 57}},
		{1000, answers{200000, 47.88828, 37, 57}},
	} {
		l := NewLatency(c.limit)
		r := sim.NewRNG(2026)
		for i := 0; i < 200000; i++ {
			v := 18 + r.Intn(40)
			if r.Intn(100) == 0 {
				v += r.Intn(2000)
			}
			l.Observe(int64(v))
		}
		got := answers{l.count, l.Mean(), l.Percentile(50), l.Percentile(99)}
		if got != c.want {
			t.Errorf("limit %d: got %+v, want %+v", c.limit, got, c.want)
		}
	}
}

// TestLatencyReservoirGrowsToLimit pins that the reservoir costs what
// it holds: NewLatency allocates none, it grows exactly up to its sample
// limit and never past it, and Reset keeps what it grew.
func TestLatencyReservoirGrowsToLimit(t *testing.T) {
	if l := NewLatency(0); cap(l.samples) != 0 {
		t.Errorf("NewLatency(0) reserved %d samples, want 0", cap(l.samples))
	}
	for _, limit := range []int{1 << 16, 1000, 40} {
		l := NewLatency(limit)
		for i := 0; i < 5*limit; i++ {
			l.Observe(int64(i))
			if cap(l.samples) > limit {
				t.Fatalf("limit %d: reservoir capacity %d after %d observations", limit, cap(l.samples), i+1)
			}
		}
		if cap(l.samples) != limit {
			t.Errorf("limit %d: reservoir capacity %d, want exactly the limit", limit, cap(l.samples))
		}
		l.Reset()
		if cap(l.samples) != limit {
			t.Errorf("limit %d: Reset dropped the reservoir (capacity %d)", limit, cap(l.samples))
		}
	}
}

// Property: Mean always lies between the smallest and the largest
// observation.
func TestLatencyMeanBounded(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		l := NewLatency(64)
		for _, v := range vals {
			l.Observe(int64(v))
		}
		return l.Mean() >= float64(slices.Min(vals)) && l.Mean() <= float64(slices.Max(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesWindows(t *testing.T) {
	s := NewSeries(50)
	for c := int64(0); c < 200; c++ {
		s.Add(c, 1)
	}
	pts := s.Finish(199)
	if len(pts) != 4 {
		t.Fatalf("got %d windows, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Value != 50 {
			t.Errorf("window %d value = %v, want 50", i, p.Value)
		}
		if p.Cycle != int64(50*(i+1)) {
			t.Errorf("window %d cycle = %d", i, p.Cycle)
		}
	}
}

func TestSeriesSparse(t *testing.T) {
	s := NewSeries(10)
	s.Add(5, 3)
	s.Add(35, 7) // skips two empty windows
	pts := s.Finish(35)
	if len(pts) != 4 {
		t.Fatalf("got %d windows", len(pts))
	}
	want := []float64{3, 0, 0, 7}
	for i, p := range pts {
		if p.Value != want[i] {
			t.Errorf("window %d = %v, want %v", i, p.Value, want[i])
		}
	}
}

func TestSeriesPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSeries(0) should panic")
		}
	}()
	NewSeries(0)
}

// TestPercentileCacheInvalidation checks that the cached sorted reservoir
// stays consistent across interleaved Observe and Percentile calls: the
// cache must be rebuilt after new samples land, including across a
// decimation pass.
func TestPercentileCacheInvalidation(t *testing.T) {
	l := NewLatency(8)
	for i := int64(1); i <= 4; i++ {
		l.Observe(i * 10)
	}
	if got := l.Percentile(100); got != 40 {
		t.Fatalf("p100 = %d, want 40", got)
	}
	// A repeated query must serve from the cache and agree.
	if got := l.Percentile(100); got != 40 {
		t.Fatalf("cached p100 = %d, want 40", got)
	}
	l.Observe(500)
	if got := l.Percentile(100); got != 500 {
		t.Fatalf("p100 after Observe = %d, want 500 (stale cache?)", got)
	}
	// Force decimation (reservoir cap 8) and re-query: the cache must
	// follow the rewritten reservoir.
	for i := int64(0); i < 32; i++ {
		l.Observe(1000 + i)
		if p := l.Percentile(50); p < 0 {
			t.Fatalf("negative percentile")
		}
	}
	if got := l.Percentile(0); got > 1000 {
		t.Fatalf("p0 = %d inconsistent after decimation (smallest observation 10)", got)
	}
	// The cache must never alias the live reservoir: mutate via Observe
	// and check an old high value cannot reappear.
	if got := l.Percentile(100); got < 500 {
		t.Fatalf("p100 = %d, want >= 500", got)
	}
}

// TestPercentileMatchesUncached cross-checks cached percentiles against a
// fresh accumulator fed the same data in one shot.
func TestPercentileMatchesUncached(t *testing.T) {
	a, b := NewLatency(64), NewLatency(64)
	vals := []int64{9, 1, 7, 3, 5, 8, 2, 6, 4}
	for _, v := range vals {
		a.Observe(v)
		a.Percentile(50) // interleave queries to exercise the cache
	}
	for _, v := range vals {
		b.Observe(v)
	}
	for _, p := range []float64{0, 25, 50, 75, 90, 99, 100} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("p%.0f: cached %d != uncached %d", p, a.Percentile(p), b.Percentile(p))
		}
	}
}
