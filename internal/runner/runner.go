// Package runner is the parallel sweep engine behind the experiment
// runners: it executes a list of independent sweep points across a
// worker pool with per-point timeout and panic recovery, cooperative
// context cancellation, and deterministic result ordering by point
// index regardless of completion order.
//
// Determinism: the engine never changes what a point computes, only
// when it runs. Every point owns its simulator and seeded RNG, so a
// sweep's results are bit-identical at any worker count — a property
// the package tests and the root package's golden tests assert.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Point is one independent unit of a sweep: a label for progress
// reporting, the simulated-cycle count it will execute (for throughput
// accounting), and the closure that runs it. Run must be self-contained:
// it builds its own simulator and must not share mutable state with
// other points.
type Point[T any] struct {
	// Label identifies the point in progress output ("4NT-128b @ 0.15").
	Label string
	// Cycles is the simulated-cycle count the point will run
	// (warmup+measure); it feeds the cycles/sec summary.
	Cycles int64
	// Run computes the point. It should observe ctx at least every few
	// thousand simulated cycles (see Simulator.RunCtx) so cancellation
	// and per-point timeouts take effect promptly.
	Run func(ctx context.Context) (T, error)
}

// Outcome is one point's result, reported at the point's original index.
type Outcome[T any] struct {
	Index int
	Label string
	// Value is the point's result; meaningful only when Err is nil.
	Value T
	// Err is the point's failure: an error it returned, a recovered
	// panic, a per-point timeout, or the sweep context's cancellation
	// error for points that never ran.
	Err error
	// Wall is the point's wall-clock execution time (zero for points
	// skipped by cancellation).
	Wall time.Duration
	// Cycles echoes Point.Cycles.
	Cycles int64
}

// Options configures a sweep.
type Options struct {
	// Jobs is the worker count; <= 0 selects runtime.GOMAXPROCS(0).
	Jobs int
	// Timeout bounds each point's execution; 0 means no limit.
	Timeout time.Duration
	// Progress receives serialized per-point start/finish/error events;
	// nil disables reporting.
	Progress Progress
	// WorkerState, when non-nil, is called once per worker goroutine and
	// its result is made available to every point that worker runs via
	// WorkerState(ctx). It is the hook simulator-reuse pools ride on: the
	// state is owned by one worker at a time, so points may mutate it
	// without synchronization, but must not retain it past their return.
	WorkerState func() any
}

// workerStateKey is the context key carrying a worker's WorkerState value.
type workerStateKey struct{}

// WorkerState returns the per-worker state installed by
// Options.WorkerState for the worker running this point, or nil when the
// sweep did not configure any.
func WorkerState(ctx context.Context) any {
	if ctx == nil {
		return nil
	}
	return ctx.Value(workerStateKey{})
}

// Run executes every point across the worker pool and returns one
// Outcome per point, in point order. Point failures (returned errors,
// panics, timeouts) are recorded in their Outcome and do not stop the
// sweep; the returned error is non-nil only when ctx is cancelled, in
// which case undispatched points carry ctx.Err() in their Outcome.
func Run[T any](ctx context.Context, points []Point[T], opts Options) ([]Outcome[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(points) {
		jobs = len(points)
	}
	out := make([]Outcome[T], len(points))
	em := &emitter{p: opts.Progress, total: len(points)}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := ctx
			if opts.WorkerState != nil {
				// One state value per worker, shared by every point this
				// worker runs — consecutive points can recycle what the
				// previous point warmed up (e.g. a simulator pool).
				wctx = context.WithValue(ctx, workerStateKey{}, opts.WorkerState())
			}
			for i := range idx {
				em.start(i, points[i].Label)
				out[i] = runPoint(wctx, points[i], i, opts.Timeout)
				finishOutcome(em, out[i])
			}
		}()
	}

	var sweepErr error
	// markRest records ctx's error for every point from i on (none of
	// them will be dispatched).
	markRest := func(i int) {
		sweepErr = ctx.Err()
		for j := i; j < len(points); j++ {
			out[j] = Outcome[T]{Index: j, Label: points[j].Label, Cycles: points[j].Cycles, Err: ctx.Err()}
		}
	}
dispatch:
	for i := range points {
		// Check cancellation with priority: a ready send and a done
		// context race in select, so without this a cancelled sweep could
		// keep dispatching points for several iterations.
		if ctx.Err() != nil {
			markRest(i)
			break dispatch
		}
		select {
		case <-ctx.Done():
			markRest(i)
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	if sweepErr == nil && ctx.Err() != nil {
		sweepErr = ctx.Err()
	}
	return out, sweepErr
}

// runPoint executes one point with panic recovery and an optional
// per-point deadline.
func runPoint[T any](ctx context.Context, p Point[T], i int, timeout time.Duration) (o Outcome[T]) {
	o.Index, o.Label, o.Cycles = i, p.Label, p.Cycles
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("sweep point %q panicked: %v\n%s", p.Label, r, debug.Stack())
		}
		o.Wall = time.Since(start)
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	o.Value, o.Err = p.Run(ctx)
	return o
}

// Values unwraps a sweep's outcomes into the plain result slice,
// returning the first point failure (in point order) if any point
// failed. Use it for all-or-nothing sweeps; inspect the outcomes
// directly to tolerate partial failure.
func Values[T any](out []Outcome[T], sweepErr error) ([]T, error) {
	if sweepErr != nil {
		return nil, sweepErr
	}
	vals := make([]T, len(out))
	for i, o := range out {
		if o.Err != nil {
			return nil, fmt.Errorf("sweep point %d (%s): %w", o.Index, o.Label, o.Err)
		}
		vals[i] = o.Value
	}
	return vals, nil
}

// Summary aggregates a finished sweep for end-of-run reporting.
type Summary struct {
	// Points is the number of points that ran to completion.
	Points int
	// Failures counts points that errored, panicked, timed out, or were
	// cancelled before running.
	Failures int
	// SimCycles sums the simulated cycles of completed points.
	SimCycles int64
	// Wall is the sweep's wall-clock duration as passed by the caller.
	Wall time.Duration
}

// CyclesPerSec is the sweep's aggregate simulation throughput.
func (s Summary) CyclesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.Wall.Seconds()
}

// String renders the end-of-run summary line.
func (s Summary) String() string {
	msg := fmt.Sprintf("%d points in %v (%d sim-cycles, %.0f cycles/sec)",
		s.Points, s.Wall.Round(time.Millisecond), s.SimCycles, s.CyclesPerSec())
	if s.Failures > 0 {
		msg += fmt.Sprintf(", %d FAILED", s.Failures)
	}
	return msg
}
