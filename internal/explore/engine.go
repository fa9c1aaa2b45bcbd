package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/catnap-noc/catnap/internal/runner"
	"github.com/catnap-noc/catnap/internal/sim"
)

// Evaluator measures one fully specified point: it builds the simulator
// for spec, runs it, and returns the objectives. It is called from the
// runner worker pool, so it must be self-contained (no shared mutable
// state) and should observe ctx for cancellation. The root catnap
// package provides the production evaluator; tests inject synthetic
// ones.
type Evaluator func(ctx context.Context, spec Spec) (Sample, error)

// Options configures a campaign.
type Options struct {
	// Space is the search space; it must pass Validate.
	Space Space
	// Eval holds the per-point evaluation constants (load, window, sim
	// seed) shared by the whole campaign.
	Eval EvalParams
	// Budget caps the number of points proposed for evaluation; <= 0 (or
	// anything above the space size) means the whole space.
	Budget int64
	// Batch is the number of points proposed per sampling round. <= 0
	// selects 64.
	Batch int
	// Grid enumerates the space in flat-index order instead of sampling
	// adaptively. It is the measurable baseline for the adaptive mode.
	Grid bool
	// ExploreFrac is the fraction of each adaptive batch drawn uniformly
	// at random (the rest refines frontier neighborhoods). 0 selects the
	// default 0.25; the valid range is [0, 1].
	ExploreFrac float64
	// MinAccepted is the feasibility floor: a point joins the frontier
	// only if its accepted throughput is at least MinAccepted×Eval.Load,
	// keeping saturated configurations (which deliver low power by
	// dropping the offered traffic on the floor) off the front. 0 selects
	// the default 0.9; the valid range is [0, 1].
	MinAccepted float64
	// Seed drives the sampling RNG (not the simulations — that is
	// Eval.Seed). Each round r uses an independent stream derived from
	// (Seed, r), so the point sequence is a pure function of the
	// campaign's options and a rerun re-proposes the same points.
	Seed uint64
	// CacheDir is the result-cache directory; "" means in-memory only.
	// A persistent cache is what makes a campaign resumable: rerunning a
	// killed campaign with the same options and CacheDir replays its
	// committed rounds as cache hits.
	CacheDir string
	// Jobs, Timeout, and Progress are passed through to the runner pool
	// for each round's evaluations.
	Jobs     int
	Timeout  time.Duration
	Progress runner.Progress
	// WorkerState makes per-worker reusable state for the runner pool
	// (runner.Options.WorkerState; the root package threads a simulator
	// pool here). States outlive their round: each round's workers take
	// the states earlier rounds made before WorkerState is called again,
	// so a campaign makes at most Jobs of them.
	WorkerState func() any
}

// Validate checks every engine knob, naming the offending field.
func (o Options) Validate() error {
	if err := o.Space.Validate(); err != nil {
		return err
	}
	if o.Eval.Load <= 0 {
		return fmt.Errorf("explore: Options.Eval.Load = %v, want > 0", o.Eval.Load)
	}
	if o.Eval.Warmup < 0 {
		return fmt.Errorf("explore: Options.Eval.Warmup = %d, want >= 0", o.Eval.Warmup)
	}
	if o.Eval.Measure <= 0 {
		return fmt.Errorf("explore: Options.Eval.Measure = %d, want > 0", o.Eval.Measure)
	}
	if o.Batch < 0 {
		return fmt.Errorf("explore: Options.Batch = %d, want >= 0 (0 = default)", o.Batch)
	}
	if o.ExploreFrac < 0 || o.ExploreFrac > 1 {
		return fmt.Errorf("explore: Options.ExploreFrac = %v, want in [0, 1]", o.ExploreFrac)
	}
	if o.MinAccepted < 0 || o.MinAccepted > 1 {
		return fmt.Errorf("explore: Options.MinAccepted = %v, want in [0, 1]", o.MinAccepted)
	}
	return nil
}

// Result is a finished (or budget-exhausted) campaign's outcome.
type Result struct {
	// Front is the final Pareto front.
	Front *Front
	// SpaceSize is the total point count of the searched space.
	SpaceSize int64
	// Proposed counts distinct points committed (evaluated, infeasible,
	// or failed); Evaluated counts the subset that simulated
	// successfully, Infeasible the evaluated points kept off the front by
	// the feasibility filter, and Failures the points that errored.
	Proposed   int64
	Evaluated  int64
	Infeasible int64
	Failures   int64
	// Rounds is the number of sampling rounds committed.
	Rounds int
	// Cache is the result cache's counters for this run.
	Cache CacheStats
}

// Run executes a campaign: propose a batch, evaluate it through the
// runner pool (cache-first), commit outcomes to the frontier in
// deterministic point order, repeat until the budget or the space is
// exhausted. propose is a pure function of the space, the front, the
// seen set, and the round, so rerunning a killed campaign with the same
// options and CacheDir replays every committed round from the cache and
// finishes with a frontier byte-identical to an uninterrupted run's.
func Run(ctx context.Context, ev Evaluator, opts Options) (*Result, error) {
	if ev == nil {
		return nil, errors.New("explore: nil Evaluator")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sp := opts.Space
	batch := opts.Batch
	if batch == 0 {
		batch = 64
	}
	exploreFrac := opts.ExploreFrac
	if exploreFrac == 0 {
		exploreFrac = 0.25
	}
	minAccepted := opts.MinAccepted
	if minAccepted == 0 {
		minAccepted = 0.9
	}
	size := sp.Size()
	budget := opts.Budget
	if budget <= 0 || budget > size {
		budget = size
	}

	cache, err := OpenCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	defer cache.Close()

	states := &workerStates{make: opts.WorkerState}
	seen := make(map[int64]struct{})
	front := &Front{}
	round := 0
	var evaluated, infeasible, failures int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pending := propose(sp, front, seen, proposeParams{
			round: round, batch: batch, budget: budget,
			grid: opts.Grid, exploreFrac: exploreFrac, seed: opts.Seed,
		})
		if len(pending) == 0 {
			break
		}

		points := make([]runner.Point[Sample], len(pending))
		for i, idx := range pending {
			spec := sp.SpecAt(idx, opts.Eval)
			points[i] = runner.Point[Sample]{
				Label:  specLabel(spec),
				Cycles: opts.Eval.Warmup + opts.Eval.Measure,
				Run: func(ctx context.Context) (Sample, error) {
					key := spec.Key()
					if s, ok := cache.Get(key); ok {
						return s, nil
					}
					s, err := ev(ctx, spec)
					if err != nil {
						return Sample{}, err
					}
					if err := cache.Put(key, spec, s); err != nil {
						return Sample{}, err
					}
					return s, nil
				},
			}
		}
		out, err := runner.Run(ctx, points, runner.Options{Jobs: opts.Jobs, Timeout: opts.Timeout, Progress: opts.Progress, WorkerState: states.taker()})
		states.release()
		if err != nil {
			// Cancelled mid-batch: every completed point is already in
			// the cache, so a rerun replays this batch from there.
			return nil, err
		}

		// Commit in point order: the fixed order makes frontier
		// membership deterministic at any worker count. propose never
		// repeats a seen index, so every commit is a new point.
		for i, o := range out {
			idx := pending[i]
			seen[idx] = struct{}{}
			if o.Err != nil {
				failures++
				continue
			}
			evaluated++
			s := o.Value
			if s.Accepted < minAccepted*opts.Eval.Load {
				infeasible++
				continue
			}
			front.Insert(Point{Index: idx, PowerW: s.PowerW, Latency: s.Latency, Accepted: s.Accepted, CSCPercent: s.CSCPercent})
		}
		round++
	}

	return &Result{
		Front: front, SpaceSize: size,
		Proposed: int64(len(seen)), Evaluated: evaluated, Infeasible: infeasible, Failures: failures,
		Rounds: round, Cache: cache.Stats(),
	}, nil
}

// workerStates keeps a campaign's per-worker states across rounds. A
// round's workers take them from their own goroutines; release runs once
// runner.Run has returned, when no worker holds one.
type workerStates struct {
	make func() any
	mu   sync.Mutex
	// all holds every state made so far, and all[:used] the ones taken
	// this round. Within a round a state is only ever taken, so once the
	// idle ones run out every new state is appended already taken.
	all  []any
	used int
}

// taker returns the runner's WorkerState hook: an idle state if there is
// one, else a new one. It is nil when the campaign has no worker state.
func (w *workerStates) taker() func() any {
	if w.make == nil {
		return nil
	}
	return func() any {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.used == len(w.all) {
			w.mu.Unlock()
			s := w.make() // outside the lock: it is the caller's code
			w.mu.Lock()
			w.all = append(w.all, s)
		}
		w.used++
		return w.all[w.used-1]
	}
}

// release returns every state taken this round to the idle set.
func (w *workerStates) release() { w.used = 0 }

// specLabel is a point's compact progress label.
func specLabel(s Spec) string {
	return fmt.Sprintf("s%d-w%d-vc%d-ti%d-%s-t%v", s.Subnets, s.WidthBits, s.VCDepth, s.TIdle, s.Metric, s.Threshold)
}

type proposeParams struct {
	round       int
	batch       int
	budget      int64
	grid        bool
	exploreFrac float64
	seed        uint64
}

// propose selects the next batch of unseen flat indices. Grid mode scans
// the space in flat-index order; adaptive mode refines ±1-step neighbors
// of current frontier members (fixed axis-major order) and fills the
// remainder — all of round 0 — with uniform random draws from the
// round's derived RNG stream. An empty result means the campaign is
// done: budget spent or no reachable unseen point.
//
// Everything here is a pure function of (space, front, seen, params), so
// a rerun of a killed campaign re-proposes exactly what it proposed.
func propose(sp Space, front *Front, seen map[int64]struct{}, p proposeParams) []int64 {
	remaining := p.budget - int64(len(seen))
	if remaining <= 0 {
		return nil
	}
	batch := p.batch
	if int64(batch) > remaining {
		batch = int(remaining)
	}

	cands := make([]int64, 0, batch)
	inBatch := make(map[int64]struct{}, batch)
	add := func(idx int64) bool {
		if _, ok := seen[idx]; ok {
			return false
		}
		if _, ok := inBatch[idx]; ok {
			return false
		}
		inBatch[idx] = struct{}{}
		cands = append(cands, idx)
		return true
	}

	if p.grid {
		for idx := int64(0); idx < sp.Size() && len(cands) < batch; idx++ {
			add(idx)
		}
		return cands
	}

	// Refinement: neighbors of the front, in the front's power order and
	// the space's fixed axis order, up to the non-exploration share.
	refineCap := batch - int(math.Round(p.exploreFrac*float64(batch)))
	if p.round > 0 {
		var nbuf []int64
		for _, fp := range front.Points() {
			if len(cands) >= refineCap {
				break
			}
			nbuf = sp.neighbors(fp.Index, nbuf[:0])
			for _, n := range nbuf {
				if len(cands) >= refineCap {
					break
				}
				add(n)
			}
		}
	}

	// Exploration: uniform draws from this round's derived stream, with
	// bounded rejection against already-sampled points.
	rng := sim.NewRNG(p.seed).SplitN(p.round)
	size := sp.Size()
	for attempts := 0; len(cands) < batch && attempts < 128*batch; attempts++ {
		add(int64(rng.Intn(int(size))))
	}

	// Progress guarantee: if sampling found nothing (space nearly
	// exhausted), fall back to a deterministic scan for any unseen point.
	if len(cands) == 0 {
		for idx := int64(0); idx < size && len(cands) < batch; idx++ {
			add(idx)
		}
	}
	return cands
}
