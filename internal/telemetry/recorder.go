package telemetry

import (
	"io"
	"sync"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/runner"
)

// Options configures a Recorder. The zero value is usable: 50-cycle
// windows (the paper's Figure 12 sampling period), a 4096-event ring,
// no streaming sink.
type Options struct {
	// Window is the metrics series window width in cycles (default 50).
	Window int64
	// RingCap bounds the in-memory event ring (default 4096). The
	// streaming sink, when set, is unaffected by the bound.
	RingCap int
	// Events, when non-nil, receives every event as streaming JSONL.
	// Call Recorder.Flush before reading what it wrote.
	Events io.Writer
}

// Recorder is the top-level telemetry handle an experiment owns: one
// shared event log plus one Collector per instrumented network. Sweep
// runs attach one collector per point (labeled), single runs attach
// one.
type Recorder struct {
	opts Options
	log  *Log

	mu         sync.Mutex
	collectors []*Collector
}

// NewRecorder builds a recorder from opts.
func NewRecorder(opts Options) *Recorder {
	if opts.Window <= 0 {
		opts.Window = 50
	}
	return &Recorder{
		opts: opts,
		log:  NewLog(opts.RingCap, opts.Events),
	}
}

// Log returns the shared event log.
func (r *Recorder) Log() *Log { return r.log }

// Attach instruments net (and det, if non-nil) with a fresh labeled
// collector: it registers the collector as a cycle observer, installs
// it as the network's power tracer and as the detector's congestion
// tracer. Call once per simulation, before stepping.
func (r *Recorder) Attach(net *noc.Network, det *congestion.Detector, label string) *Collector {
	c := NewCollector(net, r.opts.Window, r.log, label)
	net.AddObserver(c)
	net.SetPowerTracer(c)
	if det != nil {
		det.SetTracer(c)
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
	return c
}

// Metrics finishes every collector and returns all metric points, in
// attach order.
func (r *Recorder) Metrics() []MetricPoint {
	r.mu.Lock()
	cs := make([]*Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	var out []MetricPoint
	for _, c := range cs {
		c.Finish()
		out = append(out, c.Points()...)
	}
	return out
}

// WriteMetricsJSONL exports all metrics as JSONL to w.
func (r *Recorder) WriteMetricsJSONL(w io.Writer) error {
	return WriteMetricsJSONL(w, r.Metrics())
}

// WriteMetricsCSV exports all metrics as CSV to w.
func (r *Recorder) WriteMetricsCSV(w io.Writer) error {
	return WriteMetricsCSV(w, r.Metrics())
}

// Flush drains the streaming event sink, if any.
func (r *Recorder) Flush() error { return r.log.Flush() }

// Progress returns a runner.Progress adapter that records sweep-point
// lifecycle into the event log (types sweep.start/done/error, Cycle and
// Subnet/Node -1). Combine with a console via runner.Tee.
func (r *Recorder) Progress() runner.Progress {
	return runner.ProgressFunc(func(e runner.Event) {
		ev := Event{Cycle: -1, Subnet: -1, Node: -1, Point: e.Label}
		switch e.Kind {
		case runner.PointStart:
			ev.Type = EventSweepStart
		case runner.PointDone:
			ev.Type = EventSweepDone
			ev.Cycles = e.Cycles
		case runner.PointError:
			ev.Type = EventSweepError
			ev.Cycles = e.Cycles
			if e.Err != nil {
				ev.Err = e.Err.Error()
			}
		default:
			return
		}
		r.log.Append(ev)
	})
}
