package explore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/catnap-noc/catnap/internal/runner"
)

// synthEval is a deterministic pure-function evaluator: objectives are
// derived from the spec alone, with a mild power/latency trade-off so
// fronts are non-trivial, and saturation above width-dependent loads so
// the feasibility filter has something to do.
func synthEval(ctx context.Context, spec Spec) (Sample, error) {
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	power := float64(spec.Subnets)*2 + float64(spec.WidthBits)/64 + float64(spec.VCDepth)/4 + spec.Threshold/10
	latency := 900/float64(spec.WidthBits) + 16/float64(spec.Subnets) + float64(spec.TIdle)/8
	if spec.Metric == "Delay" {
		latency += 0.5
	}
	accepted := spec.Load
	// Narrow single-subnet configs saturate: deliver half the offered load.
	if spec.Subnets == 1 && spec.WidthBits <= 128 {
		accepted = spec.Load / 2
	}
	return Sample{PowerW: power, Latency: latency, Accepted: accepted, CSCPercent: 10}, nil
}

func testOptions(sp Space) Options {
	return Options{
		Space: sp,
		Eval:  EvalParams{Load: 0.1, Warmup: 100, Measure: 400, Seed: 1},
		Batch: 8,
		Seed:  7,
		Jobs:  4,
	}
}

func frontBytes(t *testing.T, r *Result, sp Space, eval EvalParams) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Front.WriteTo(&buf, sp, eval); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEngineGridCoversSpace(t *testing.T) {
	sp := testSpace()
	opts := testOptions(sp)
	opts.Grid = true
	r, err := Run(context.Background(), synthEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Proposed != sp.Size() || r.Evaluated != sp.Size() {
		t.Fatalf("grid covered %d/%d points (evaluated %d)", r.Proposed, sp.Size(), r.Evaluated)
	}
	if r.Failures != 0 {
		t.Fatalf("%d failures", r.Failures)
	}
	if r.Front.Len() == 0 {
		t.Fatal("empty front")
	}
	if err := r.Front.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The feasibility filter must keep saturated configs off the front.
	for _, p := range r.Front.Points() {
		s := sp.SpecAt(p.Index, opts.Eval)
		if s.Subnets == 1 && s.WidthBits <= 128 {
			t.Fatalf("saturated config on the front: %+v", s)
		}
	}
}

func TestEngineAdaptiveFullBudgetMatchesGrid(t *testing.T) {
	// With budget = space size, both modes evaluate every point, so the
	// Pareto front must be identical (dominance is order-independent for
	// distinct objective pairs; synthEval never produces exact ties on
	// this space).
	sp := testSpace()
	gopts := testOptions(sp)
	gopts.Grid = true
	grid, err := Run(context.Background(), synthEval, gopts)
	if err != nil {
		t.Fatal(err)
	}
	aopts := testOptions(sp)
	adaptive, err := Run(context.Background(), synthEval, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Proposed != sp.Size() {
		t.Fatalf("adaptive covered %d/%d", adaptive.Proposed, sp.Size())
	}
	gb := frontBytes(t, grid, sp, gopts.Eval)
	ab := frontBytes(t, adaptive, sp, aopts.Eval)
	if !bytes.Equal(gb, ab) {
		t.Fatalf("full-budget fronts differ:\ngrid: %s\nadaptive: %s", gb, ab)
	}
}

func TestEngineBudgetRespected(t *testing.T) {
	opts := testOptions(testSpace())
	opts.Budget = 10
	opts.Batch = 4
	r, err := Run(context.Background(), synthEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Proposed != 10 {
		t.Fatalf("proposed %d points, want exactly the budget 10", r.Proposed)
	}
	if r.Rounds != 3 { // 4 + 4 + 2
		t.Fatalf("rounds = %d, want 3", r.Rounds)
	}
}

func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	sp := testSpace()
	var ref []byte
	for _, jobs := range []int{1, 3, 8} {
		opts := testOptions(sp)
		opts.Jobs = jobs
		opts.Budget = 20
		r, err := Run(context.Background(), synthEval, opts)
		if err != nil {
			t.Fatal(err)
		}
		b := frontBytes(t, r, sp, opts.Eval)
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("front differs at jobs=%d", jobs)
		}
	}
}

// TestEngineReusesWorkerStates pins that worker states outlive their
// round: a four-round campaign on two workers makes at most two states,
// every point sees one, and no state is held by two workers at once.
func TestEngineReusesWorkerStates(t *testing.T) {
	type state struct{ busy atomic.Bool }
	var made atomic.Int32
	opts := testOptions(testSpace())
	opts.Jobs = 2
	opts.Budget = 32
	opts.WorkerState = func() any {
		made.Add(1)
		return &state{}
	}
	eval := func(ctx context.Context, spec Spec) (Sample, error) {
		st, ok := runner.WorkerState(ctx).(*state)
		if !ok {
			return Sample{}, errors.New("point ran without a worker state")
		}
		if !st.busy.CompareAndSwap(false, true) {
			return Sample{}, errors.New("worker state held by two workers at once")
		}
		defer st.busy.Store(false)
		return synthEval(ctx, spec)
	}
	r, err := Run(context.Background(), eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds != 4 || r.Failures != 0 {
		t.Fatalf("rounds = %d, failures = %d; want 4 rounds, no failures", r.Rounds, r.Failures)
	}
	if n := made.Load(); n > 2 {
		t.Errorf("WorkerState called %d times over %d rounds on 2 workers, want at most 2", n, r.Rounds)
	}
}

func TestEngineWarmCacheBitIdentical(t *testing.T) {
	sp := testSpace()
	dir := t.TempDir()
	opts := testOptions(sp)
	opts.Budget = 20
	opts.CacheDir = dir
	cold, err := Run(context.Background(), synthEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Hits != 0 || cold.Cache.Misses != cold.Proposed {
		t.Fatalf("cold cache stats %+v", cold.Cache)
	}
	warm, err := Run(context.Background(), synthEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Misses != 0 || warm.Cache.Hits != warm.Proposed {
		t.Fatalf("warm run not fully cached: %+v", warm.Cache)
	}
	if !bytes.Equal(frontBytes(t, cold, sp, opts.Eval), frontBytes(t, warm, sp, opts.Eval)) {
		t.Fatal("warm front differs from cold front")
	}
}

// failingEval is synthEval with a deterministic failure on one slice of
// the space, so a campaign also has failed points to count.
func failingEval(ctx context.Context, spec Spec) (Sample, error) {
	if spec.VCDepth == 2 && spec.Metric == "Delay" {
		return Sample{}, errors.New("synthetic failure")
	}
	return synthEval(ctx, spec)
}

// TestEngineKillResumeBitIdentical is the resumability acceptance test:
// a campaign killed after every possible number of evaluations, then
// rerun on the same cache directory, must finish with a frontier
// byte-identical to an uninterrupted run's and with the same counters.
// Failed points are not cached, so the rerun retries them and they fail
// again.
func TestEngineKillResumeBitIdentical(t *testing.T) {
	sp := testSpace()
	baseOpts := testOptions(sp)
	baseOpts.Budget = 24
	baseOpts.Batch = 8
	baseline, err := Run(context.Background(), failingEval, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Failures == 0 || baseline.Infeasible == 0 {
		t.Fatalf("baseline has no failed or infeasible points to compare: %+v", baseline)
	}
	want := frontBytes(t, baseline, sp, baseOpts.Eval)

	for _, killAfter := range []int64{1, 5, 8, 9, 17, 23} {
		t.Run(fmt.Sprintf("kill-after-%d", killAfter), func(t *testing.T) {
			opts := baseOpts
			opts.CacheDir = filepath.Join(t.TempDir(), "cache")
			opts.Jobs = 1 // make the kill point exact

			// First run: the evaluator pulls the plug mid-campaign.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var evals atomic.Int64
			killing := func(ctx context.Context, spec Spec) (Sample, error) {
				if evals.Add(1) >= killAfter {
					cancel()
				}
				return failingEval(ctx, spec)
			}
			if _, err := Run(ctx, killing, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("killed run returned %v, want context.Canceled", err)
			}

			// Rerun: same options and cache, fresh context.
			resumed, err := Run(context.Background(), failingEval, opts)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Proposed != baseline.Proposed {
				t.Fatalf("resumed campaign proposed %d points, baseline %d", resumed.Proposed, baseline.Proposed)
			}
			if resumed.Evaluated != baseline.Evaluated || resumed.Infeasible != baseline.Infeasible ||
				resumed.Failures != baseline.Failures || resumed.Rounds != baseline.Rounds {
				t.Fatalf("resumed counters %+v differ from baseline %+v", resumed, baseline)
			}
			got := frontBytes(t, resumed, sp, opts.Eval)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed front differs from uninterrupted run:\nresumed: %s\nbaseline: %s", got, want)
			}
		})
	}
}

func TestEngineResumeOfFinishedCampaignIsNoop(t *testing.T) {
	sp := testSpace()
	opts := testOptions(sp)
	opts.Budget = 12
	opts.CacheDir = filepath.Join(t.TempDir(), "cache")
	first, err := Run(context.Background(), synthEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(context.Background(), synthEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache.Misses != 0 {
		t.Fatalf("finished campaign re-simulated %d points", again.Cache.Misses)
	}
	if !bytes.Equal(frontBytes(t, first, sp, opts.Eval), frontBytes(t, again, sp, opts.Eval)) {
		t.Fatal("re-run of finished campaign changed the front")
	}
}

func TestEngineFailedPointsAreCountedNotFatal(t *testing.T) {
	sp := testSpace()
	opts := testOptions(sp)
	opts.Grid = true
	flaky := func(ctx context.Context, spec Spec) (Sample, error) {
		if spec.Subnets == 2 {
			return Sample{}, errors.New("synthetic failure")
		}
		return synthEval(ctx, spec)
	}
	r, err := Run(context.Background(), flaky, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures == 0 {
		t.Fatal("no failures recorded")
	}
	if r.Proposed != sp.Size() {
		t.Fatalf("failures stopped the campaign at %d/%d", r.Proposed, sp.Size())
	}
	for _, p := range r.Front.Points() {
		if sp.SpecAt(p.Index, opts.Eval).Subnets == 2 {
			t.Fatal("failed point landed on the front")
		}
	}
}

func TestEngineOptionsValidate(t *testing.T) {
	valid := testOptions(testSpace())
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"empty-space", func(o *Options) { o.Space.Metrics = nil }, "Space.Metrics"},
		{"load", func(o *Options) { o.Eval.Load = 0 }, "Options.Eval.Load"},
		{"warmup", func(o *Options) { o.Eval.Warmup = -1 }, "Options.Eval.Warmup"},
		{"measure", func(o *Options) { o.Eval.Measure = 0 }, "Options.Eval.Measure"},
		{"batch", func(o *Options) { o.Batch = -1 }, "Options.Batch"},
		{"explore-frac", func(o *Options) { o.ExploreFrac = 1.5 }, "Options.ExploreFrac"},
		{"min-accepted", func(o *Options) { o.MinAccepted = -0.1 }, "Options.MinAccepted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := valid
			c.mutate(&o)
			err := o.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want mention of %s", err, c.want)
			}
			if _, err := Run(context.Background(), synthEval, o); err == nil {
				t.Fatal("Run accepted invalid options")
			}
		})
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if _, err := Run(context.Background(), nil, valid); err == nil {
		t.Fatal("nil evaluator accepted")
	}
}
