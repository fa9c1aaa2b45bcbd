package catnap

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"github.com/catnap-noc/catnap/internal/runner"
)

// tinyExploreOpts is a minutes-not-hours campaign for integration tests:
// 8 real simulations at short scale.
func tinyExploreOpts() ExperimentOpts {
	return ExperimentOpts{
		Scale: Scale{Warmup: 100, Measure: 400},
		Explore: ExploreOpts{
			Space: ExploreSpace{
				Subnets:    []int{1, 4},
				Widths:     []int{128, 512},
				VCDepths:   []int{4},
				TIdles:     []int{4},
				Metrics:    []string{"BFM"},
				Thresholds: []float64{0, 2},
			},
			Grid: true,
		},
	}
}

// TestRunExploreEndToEnd drives the production evaluator over a tiny
// grid: the campaign must evaluate every point, produce a non-empty
// consistent front, and serialize it identically on a warm-cache rerun.
func TestRunExploreEndToEnd(t *testing.T) {
	opts := tinyExploreOpts()
	opts.Explore.CacheDir = filepath.Join(t.TempDir(), "cache")
	r, err := RunExplore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpaceSize != 8 || r.Proposed != 8 {
		t.Fatalf("campaign covered %d/%d points", r.Proposed, r.SpaceSize)
	}
	if r.Failures != 0 {
		t.Fatalf("%d evaluation failures", r.Failures)
	}
	if r.Front.Len() == 0 {
		t.Fatal("empty front")
	}
	if err := r.Front.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Front.Points() {
		if p.PowerW <= 0 || p.Latency <= 0 {
			t.Fatalf("front member with non-physical objectives: %+v", p)
		}
	}

	var cold bytes.Buffer
	if err := r.WriteFront(&cold); err != nil {
		t.Fatal(err)
	}
	warm, err := RunExplore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Misses != 0 || warm.Cache.Hits != 8 {
		t.Fatalf("warm rerun not fully cached: %+v", warm.Cache)
	}
	var warmBuf bytes.Buffer
	if err := warm.WriteFront(&warmBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warmBuf.Bytes()) {
		t.Fatal("warm-cache frontier differs from cold frontier")
	}
}

// TestRunExploreKillAndRerun cancels a production campaign after its
// fifth finished point, then reruns it on the same cache directory: the
// rerun must replay the finished points from the cache and end with the
// front of an uninterrupted run.
func TestRunExploreKillAndRerun(t *testing.T) {
	opts := tinyExploreOpts()
	opts.Explore.Batch = 4
	opts.Sweep.Jobs = 1
	want, err := RunExplore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantFront bytes.Buffer
	if err := want.WriteFront(&wantFront); err != nil {
		t.Fatal(err)
	}

	opts.Explore.CacheDir = filepath.Join(t.TempDir(), "cache")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := opts
	done := 0
	killed.Sweep.Progress = runner.ProgressFunc(func(e runner.Event) {
		if e.Kind == runner.PointDone {
			if done++; done == 5 {
				cancel()
			}
		}
	})
	if _, err := RunExplore(ctx, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed campaign returned %v, want context.Canceled", err)
	}

	got, err := RunExplore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache.Hits < 5 {
		t.Fatalf("rerun replayed %d points from the cache, want >= 5: %+v", got.Cache.Hits, got.Cache)
	}
	if got.Proposed != want.Proposed {
		t.Fatalf("rerun proposed %d points, uninterrupted run %d", got.Proposed, want.Proposed)
	}
	var gotFront bytes.Buffer
	if err := got.WriteFront(&gotFront); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFront.Bytes(), wantFront.Bytes()) {
		t.Fatalf("rerun front differs from uninterrupted run:\nrerun: %s\nwant: %s", gotFront.Bytes(), wantFront.Bytes())
	}
}

// TestExploreExperimentRegistered exercises the registry path: the
// "explore" experiment renders one table row per front member.
func TestExploreExperimentRegistered(t *testing.T) {
	res, err := RunExperiment(context.Background(), "explore", tinyExploreOpts())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res.Data.(*ExploreResult)
	if !ok {
		t.Fatalf("Data is %T, want *ExploreResult", res.Data)
	}
	if len(res.Rows) != r.Front.Len() {
		t.Fatalf("%d table rows for a %d-member front", len(res.Rows), r.Front.Len())
	}
	if len(res.Header) != len(res.Rows[0]) {
		t.Fatalf("header has %d columns, rows have %d", len(res.Header), len(res.Rows[0]))
	}
	found := false
	for _, e := range Experiments() {
		if e.Name == "explore" && e.Kind == "study" {
			found = true
		}
	}
	if !found {
		t.Fatal("explore missing from the experiment registry")
	}
}
