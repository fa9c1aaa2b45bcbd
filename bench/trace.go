package main

import (
	"context"
	"math/bits"
	"sync"
	"time"

	"github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// sweepState is shared by one sweep's workers. The runner calls newWorker
// once per worker goroutine and delivers progress events one at a time.
type sweepState struct {
	o       runOpts
	mu      sync.Mutex
	workers []*worker
	walls   []time.Duration
}

func newSweepState(o runOpts) *sweepState { return &sweepState{o: o} }

// newWorker is the runner's WorkerState hook.
func (s *sweepState) newWorker() any {
	w := &worker{st: s}
	if !s.o.fresh {
		w.pool = catnap.NewSimPool()
	}
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	return w
}

// Event implements runner.Progress, recording each finished point's wall.
func (s *sweepState) Event(e runner.Event) {
	if e.Kind != runner.PointStart {
		s.walls = append(s.walls, e.Wall)
	}
}

// collect moves the workers' layer stats, spans and point walls into r.
// Call it after the runner has returned.
func (s *sweepState) collect(r *sweepResult) {
	if !s.o.traced {
		return
	}
	for _, w := range s.workers {
		r.layers.merge(&w.layers)
		r.spans = append(r.spans, w.spans...)
	}
	r.pointWalls = append(r.pointWalls, s.walls...)
}

// worker is one runner worker's state. Each worker goroutine owns its
// value, so nothing in it needs locking.
type worker struct {
	st *sweepState
	// pool is nil on fresh sweeps, where SimPool.Get builds with New.
	pool   *catnap.SimPool
	last   *catnap.Simulator
	layers layerStats
	spans  []span
}

// simulate runs one point: provision a simulator for cfg, attach
// uniform-random traffic at load (or the core model running mix), warm up,
// and measure. Untraced, it is the library's own composition; traced, the
// same calls are made one by one and timed.
func (w *worker) simulate(ctx context.Context, label string, cfg catnap.Config, load float64, mix string, warmup, measure int64) (catnap.Results, error) {
	if !w.st.o.traced {
		sim, err := w.pool.Get(cfg)
		if err != nil {
			return catnap.Results{}, err
		}
		if mix != "" {
			return sim.RunApp(ctx, mix, warmup, measure)
		}
		return sim.RunSyntheticCtx(ctx, traffic.UniformRandom{}, traffic.Constant(load), warmup, measure)
	}

	l := &w.layers
	pt := w.beginPoint(label)
	t := time.Now()
	sim, err := w.pool.Get(cfg)
	l.reset += pt.child("sim.reset", t, nil)
	if err != nil {
		return catnap.Results{}, err
	}
	if sim != w.last {
		l.fresh++
		w.last = sim
	}

	t = time.Now()
	var gen *traffic.Generator
	if mix != "" {
		_, err = sim.UseMix(mix)
	} else {
		gen = sim.UseSynthetic(traffic.UniformRandom{}, traffic.Constant(load), 0)
	}
	l.attach += pt.child("sim.attach", t, nil)
	if err != nil {
		return catnap.Results{}, err
	}

	var warm, meas cycleCalls
	t = time.Now()
	err = runCycles(ctx, sim, gen, warmup, &warm)
	l.warmup += pt.child("sim.warmup", t, &warm)
	if err != nil {
		return catnap.Results{}, err
	}
	t = time.Now()
	sim.StartMeasure()
	l.open += pt.child("sim.measure_open", t, nil)
	t = time.Now()
	err = runCycles(ctx, sim, gen, measure, &meas)
	l.measure += pt.child("sim.measure", t, &meas)
	if err != nil {
		return catnap.Results{}, err
	}
	t = time.Now()
	res := sim.StopMeasure()
	l.close += pt.child("sim.measure_close", t, nil)
	l.point += pt.end()

	l.calls.merge(&warm)
	l.calls.merge(&meas)
	l.count(sim)
	return res, nil
}

// ctxCheckCycles matches Simulator.RunCtx's cancellation polling period.
const ctxCheckCycles = 4096

// runCycles is Simulator.Run written from public calls, timing each
// per-cycle call: the idle-skip attempt (with the traffic lookahead that
// bounds it), the generator's tick, and the network step.
func runCycles(ctx context.Context, sim *catnap.Simulator, gen *traffic.Generator, n int64, c *cycleCalls) error {
	net := sim.Net
	end := net.Now() + n
	for i := 0; net.Now() < end; i++ {
		if i%ctxCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := time.Now()
		if net.IdleSkip() {
			target := end
			if gen != nil {
				if at, ok := gen.NextArrival(net.Now()); ok && at < target {
					target = at
				}
			}
			c.skipped += net.TrySkipIdle(target)
			now := time.Now()
			c.skip.add(now.Sub(t))
			t = now
			if net.Now() >= end {
				break
			}
		}
		if gen != nil {
			gen.Tick(net.Now())
			now := time.Now()
			c.tick.add(now.Sub(t))
			t = now
		}
		net.Step()
		c.step.add(time.Since(t))
	}
	return nil
}

// histBuckets bounds the log2 call-time histogram: bucket k counts calls
// that took [2^(k-1), 2^k) ns, and the last bucket everything longer.
const histBuckets = 40

// callStats aggregates one per-cycle call site: a count, the total time,
// and a log2 histogram of call times.
type callStats struct {
	count int64
	total time.Duration
	hist  [histBuckets]int64
}

func (c *callStats) add(d time.Duration) {
	c.count++
	c.total += d
	c.hist[min(bits.Len64(uint64(d)), histBuckets-1)]++
}

func (c *callStats) merge(o *callStats) {
	c.count += o.count
	c.total += o.total
	for k, n := range o.hist {
		c.hist[k] += n
	}
}

// callJSON is callStats as written in a span.
type callJSON struct {
	Count  int64   `json:"count"`
	NS     int64   `json:"ns"`
	Log2NS []int64 `json:"log2_ns"`
}

func (c *callStats) json() callJSON {
	last := 0
	for k, n := range c.hist {
		if n > 0 {
			last = k
		}
	}
	return callJSON{Count: c.count, NS: c.total.Nanoseconds(), Log2NS: append([]int64(nil), c.hist[:last+1]...)}
}

// cycleCalls holds the per-cycle call sites of one run of cycles.
type cycleCalls struct {
	step, skip, tick callStats
	skipped          int64
}

func (c *cycleCalls) merge(o *cycleCalls) {
	c.step.merge(&o.step)
	c.skip.merge(&o.skip)
	c.tick.merge(&o.tick)
	c.skipped += o.skipped
}

func (c *cycleCalls) json() map[string]callJSON {
	m := map[string]callJSON{"noc.step": c.step.json(), "noc.skip": c.skip.json()}
	if c.tick.count > 0 {
		m["traffic.tick"] = c.tick.json()
	}
	return m
}

// layerStats accumulates a traced sweep's per-layer time and work.
type layerStats struct {
	points, fresh                                      int64
	point, reset, attach, warmup, open, measure, close time.Duration
	calls                                              cycleCalls
	// Work counts over each point's whole run, warmup included.
	xbar, activeRouterCycles, routerCycles, gatingTransitions int64
	created, missesCompleted                                  int64
}

// count adds the work sim did since its last reset.
func (l *layerStats) count(sim *catnap.Simulator) {
	ev := sim.Net.Events()
	l.xbar += ev.XbarTraversals
	l.activeRouterCycles += ev.ActiveRouterCycles
	l.routerCycles += sim.Net.Now() * int64(sim.Net.Topo().Nodes()) * int64(sim.Net.Subnets())
	l.gatingTransitions += ev.GatingTransitions
	created, _, _ := sim.Net.Counts()
	l.created += created
	if sys := sim.System(); sys != nil {
		_, done := sys.MissStats()
		l.missesCompleted += done
	}
}

func (l *layerStats) merge(o *layerStats) {
	l.points += o.points
	l.fresh += o.fresh
	l.point += o.point
	l.reset += o.reset
	l.attach += o.attach
	l.warmup += o.warmup
	l.open += o.open
	l.measure += o.measure
	l.close += o.close
	l.calls.merge(&o.calls)
	l.xbar += o.xbar
	l.activeRouterCycles += o.activeRouterCycles
	l.routerCycles += o.routerCycles
	l.gatingTransitions += o.gatingTransitions
	l.created += o.created
	l.missesCompleted += o.missesCompleted
}

// span is one timed interval of a point, written as a JSONL line. The
// spans of one point share Trace; the point span's ID is Trace*8 and its
// children's IDs follow it. Times are nanoseconds since the run began.
type span struct {
	Trace  int64               `json:"trace"`
	ID     int64               `json:"id"`
	Parent int64               `json:"parent,omitempty"`
	Name   string              `json:"name"`
	Label  string              `json:"label,omitempty"`
	Start  int64               `json:"start_ns"`
	End    int64               `json:"end_ns"`
	Calls  map[string]callJSON `json:"calls,omitempty"`
}

// pointSpans records one point's spans on its worker.
type pointSpans struct {
	w     *worker
	trace int64
	label string
	start time.Time
	n     int64
}

func (w *worker) beginPoint(label string) *pointSpans {
	p := &pointSpans{w: w, label: label, start: time.Now()}
	if w.st.o.spans {
		p.trace = w.st.o.traceIDs.Add(1)
	}
	return p
}

// child records a child span that began at start and returns its length.
func (p *pointSpans) child(name string, start time.Time, calls *cycleCalls) time.Duration {
	end := time.Now()
	if p.w.st.o.spans {
		p.n++
		s := span{Trace: p.trace, ID: p.trace*8 + p.n, Parent: p.trace * 8, Name: name,
			Start: start.Sub(p.w.st.o.epoch).Nanoseconds(), End: end.Sub(p.w.st.o.epoch).Nanoseconds()}
		if calls != nil {
			s.Calls = calls.json()
		}
		p.w.spans = append(p.w.spans, s)
	}
	return end.Sub(start)
}

// end records the point span and returns its length.
func (p *pointSpans) end() time.Duration {
	end := time.Now()
	p.w.layers.points++
	if p.w.st.o.spans {
		p.w.spans = append(p.w.spans, span{Trace: p.trace, ID: p.trace * 8, Name: "point", Label: p.label,
			Start: p.start.Sub(p.w.st.o.epoch).Nanoseconds(), End: end.Sub(p.w.st.o.epoch).Nanoseconds()})
	}
	return end.Sub(p.start)
}
