package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"github.com/catnap-noc/catnap/internal/stats"
)

// MetricPoint is one exported metrics row: a counter total or one closed
// window of a series. The flat shape (rather than nested per-metric
// arrays) keeps the JSONL and CSV forms line-per-fact and trivially
// greppable.
type MetricPoint struct {
	// Metric names the instrument, e.g. "power.active_router_cycles".
	Metric string `json:"metric"`
	// Label is the collector's label (the sweep point or experiment
	// name); empty for unlabeled single runs.
	Label string `json:"label,omitempty"`
	// Subnet scopes per-subnet metrics; -1 means network-wide.
	Subnet int `json:"subnet"`
	// Cycle is the end of the window a series value covers, or -1 for
	// counters (which are totals over the whole run).
	Cycle int64 `json:"cycle"`
	// Value is the windowed sum or counter total.
	Value float64 `json:"value"`
}

// Counter is a monotonically increasing total. Add is atomic because a
// Recorder is shared across sweep workers: it may read a counter while
// the simulation that owns it is still running.
type Counter struct {
	name   string
	subnet int
	v      int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { atomic.AddInt64(&c.v, d) }

// Value returns the current total.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// seriesMetric pairs a stats.Series with its registry identity. Series
// are only ever touched from the collector's AfterCycle (single
// goroutine), so they need no locking.
type seriesMetric struct {
	name   string
	subnet int
	s      *stats.Series
}

// Registry holds a collector's instruments in registration order, so
// exports are deterministic.
type Registry struct {
	label    string
	counters []*Counter
	series   []*seriesMetric
}

// NewRegistry returns an empty registry whose exported points carry
// label.
func NewRegistry(label string) *Registry { return &Registry{label: label} }

// Counter registers and returns a counter. Subnet -1 means
// network-wide.
func (r *Registry) Counter(name string, subnet int) *Counter {
	c := &Counter{name: name, subnet: subnet}
	r.counters = append(r.counters, c)
	return c
}

// Series registers a windowed series. Subnet -1 means network-wide.
func (r *Registry) Series(name string, subnet int, window int64) *stats.Series {
	s := stats.NewSeries(window)
	r.series = append(r.series, &seriesMetric{name: name, subnet: subnet, s: s})
	return s
}

// Points exports every instrument: counters first (Cycle -1), then each
// series' closed windows. Call after finishing the series (the
// Collector's Finish does both).
func (r *Registry) Points() []MetricPoint {
	var out []MetricPoint
	for _, c := range r.counters {
		out = append(out, MetricPoint{
			Metric: c.name, Label: r.label, Subnet: c.subnet,
			Cycle: -1, Value: float64(c.Value()),
		})
	}
	for _, sm := range r.series {
		for _, p := range sm.s.Points() {
			out = append(out, MetricPoint{
				Metric: sm.name, Label: r.label, Subnet: sm.subnet,
				Cycle: p.Cycle, Value: p.Value,
			})
		}
	}
	return out
}

// finish closes every series' trailing window at cycle now.
func (r *Registry) finish(now int64) {
	for _, sm := range r.series {
		sm.s.Finish(now)
	}
}

// WriteMetricsJSONL encodes points as JSONL (one object per line).
func WriteMetricsJSONL(w io.Writer, points []MetricPoint) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range points {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMetricsCSV encodes points as CSV with a header row.
func WriteMetricsCSV(w io.Writer, points []MetricPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "label", "subnet", "cycle", "value"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			p.Metric, p.Label,
			strconv.Itoa(p.Subnet),
			strconv.FormatInt(p.Cycle, 10),
			strconv.FormatFloat(p.Value, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadMetrics streams a JSONL metrics file, calling fn per point.
func ReadMetrics(r io.Reader, fn func(MetricPoint) error) error {
	dec := json.NewDecoder(r)
	for i := 0; ; i++ {
		var p MetricPoint
		if err := dec.Decode(&p); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("telemetry: metric %d: %w", i, err)
		}
		if err := fn(p); err != nil {
			return err
		}
	}
}
