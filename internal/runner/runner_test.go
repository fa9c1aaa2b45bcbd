package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestResultOrderDeterminism runs many points whose completion order is
// deliberately scrambled (later points finish first) across a wide
// worker pool and asserts outcomes land at their original indices. Run
// under -race this also exercises the engine's synchronization.
func TestResultOrderDeterminism(t *testing.T) {
	const n = 64
	pts := make([]Point[int], n)
	for i := 0; i < n; i++ {
		pts[i] = Point[int]{
			Label:  fmt.Sprintf("p%d", i),
			Cycles: int64(i),
			Run: func(ctx context.Context) (int, error) {
				// Earlier points sleep longer, so completion order inverts
				// submission order.
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return i * 3, nil
			},
		}
	}
	out, err := Run(context.Background(), pts, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d outcomes, want %d", len(out), n)
	}
	for i, o := range out {
		if o.Index != i || o.Value != i*3 || o.Err != nil {
			t.Fatalf("outcome %d: index=%d value=%d err=%v", i, o.Index, o.Value, o.Err)
		}
		if o.Label != fmt.Sprintf("p%d", i) {
			t.Fatalf("outcome %d: label %q", i, o.Label)
		}
	}
}

// TestPanicBecomesError: a panicking point is reported as that point's
// error; the rest of the sweep completes normally.
func TestPanicBecomesError(t *testing.T) {
	pts := []Point[string]{
		{Label: "ok-0", Run: func(ctx context.Context) (string, error) { return "a", nil }},
		{Label: "boom", Run: func(ctx context.Context) (string, error) { panic("kaboom") }},
		{Label: "ok-2", Run: func(ctx context.Context) (string, error) { return "c", nil }},
	}
	out, err := Run(context.Background(), pts, Options{Jobs: 2})
	if err != nil {
		t.Fatalf("sweep error: %v", err)
	}
	if out[0].Err != nil || out[0].Value != "a" || out[2].Err != nil || out[2].Value != "c" {
		t.Fatalf("healthy points disturbed: %+v %+v", out[0], out[2])
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", out[1].Err)
	}
	if !strings.Contains(out[1].Err.Error(), `"boom"`) {
		t.Fatalf("panic error does not name the point: %v", out[1].Err)
	}
	if _, err := Values(out, nil); err == nil {
		t.Fatal("Values should surface the panic error")
	}
}

// TestCancellationMidSweep cancels the context partway through a
// single-worker sweep and checks that the sweep stops, the undispatched
// points carry ctx.Err(), and Run reports the cancellation.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 8
	var ran int
	pts := make([]Point[int], n)
	for i := 0; i < n; i++ {
		pts[i] = Point[int]{
			Label: fmt.Sprintf("p%d", i),
			Run: func(ctx context.Context) (int, error) {
				ran++
				if i == 2 {
					cancel() // cancel the sweep from inside point 2
				}
				return i, nil
			},
		}
	}
	out, err := Run(ctx, pts, Options{Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	if ran > 4 {
		t.Fatalf("%d points ran after cancellation", ran)
	}
	// Points 0..2 completed; the tail must carry the cancellation error.
	for i := 0; i <= 2; i++ {
		if out[i].Err != nil {
			t.Fatalf("point %d: unexpected err %v", i, out[i].Err)
		}
	}
	cancelled := 0
	for _, o := range out[3:] {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled < n-4 {
		t.Fatalf("only %d trailing points marked cancelled: %+v", cancelled, out)
	}
}

// TestPerPointTimeout: a point that honors ctx blocks until its deadline
// and reports DeadlineExceeded without failing the sweep.
func TestPerPointTimeout(t *testing.T) {
	pts := []Point[int]{
		{Label: "fast", Run: func(ctx context.Context) (int, error) { return 1, nil }},
		{Label: "stuck", Run: func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}},
	}
	out, err := Run(context.Background(), pts, Options{Jobs: 2, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("sweep error: %v", err)
	}
	if out[0].Err != nil || out[0].Value != 1 {
		t.Fatalf("fast point: %+v", out[0])
	}
	if !errors.Is(out[1].Err, context.DeadlineExceeded) {
		t.Fatalf("stuck point err = %v, want DeadlineExceeded", out[1].Err)
	}
}

// TestProgressEvents checks the event stream: serialized delivery, one
// start and one finish per point, a monotonically increasing done
// counter, and error events for failing points.
func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	prog := ProgressFunc(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, e)
	})
	pts := []Point[int]{
		{Label: "a", Cycles: 100, Run: func(ctx context.Context) (int, error) { return 1, nil }},
		{Label: "b", Cycles: 200, Run: func(ctx context.Context) (int, error) { return 0, errors.New("nope") }},
		{Label: "c", Cycles: 300, Run: func(ctx context.Context) (int, error) { return 3, nil }},
	}
	if _, err := Run(context.Background(), pts, Options{Jobs: 2, Progress: prog}); err != nil {
		t.Fatal(err)
	}
	starts, dones, errs := 0, 0, 0
	lastDone := 0
	for _, e := range events {
		if e.Total != 3 {
			t.Fatalf("event total = %d", e.Total)
		}
		switch e.Kind {
		case PointStart:
			starts++
		case PointDone:
			dones++
		case PointError:
			errs++
			if e.Err == nil {
				t.Fatal("error event without error")
			}
		}
		if e.Kind != PointStart {
			if e.Done != lastDone+1 {
				t.Fatalf("done counter jumped: %d -> %d", lastDone, e.Done)
			}
			lastDone = e.Done
		}
	}
	if starts != 3 || dones != 2 || errs != 1 {
		t.Fatalf("starts=%d dones=%d errs=%d", starts, dones, errs)
	}
}

// TestSummarize checks the end-of-run summary's throughput and that its
// line reports failures.
func TestSummarize(t *testing.T) {
	s := Summary{Points: 2, Failures: 1, SimCycles: 3000, Wall: 2 * time.Second}
	if got := s.CyclesPerSec(); got != 1500 {
		t.Fatalf("cycles/sec = %v", got)
	}
	if !strings.Contains(s.String(), "FAILED") {
		t.Fatalf("summary string hides failures: %q", s.String())
	}
}

// TestValuesOrder checks Values unwraps in point order and reports the
// first failure by index, not completion time.
func TestValuesOrder(t *testing.T) {
	out := []Outcome[int]{
		{Index: 0, Value: 10},
		{Index: 1, Label: "bad1", Err: errors.New("first")},
		{Index: 2, Label: "bad2", Err: errors.New("second")},
	}
	_, err := Values(out, nil)
	if err == nil || !strings.Contains(err.Error(), "bad1") {
		t.Fatalf("err = %v, want first failure by index", err)
	}
	vals, err := Values(out[:1], nil)
	if err != nil || len(vals) != 1 || vals[0] != 10 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}

// TestNilContextAndEmptySweep: defensive edges.
func TestNilContextAndEmptySweep(t *testing.T) {
	out, err := Run[int](nil, nil, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
	pts := []Point[int]{{Label: "only", Run: func(ctx context.Context) (int, error) { return 7, nil }}}
	out, err = Run(nil, pts, Options{Jobs: 16}) // jobs clamped to len(points)
	if err != nil || out[0].Value != 7 {
		t.Fatalf("single point: out=%v err=%v", out, err)
	}
}

// TestConsoleProgress smoke-tests both console modes against a buffer.
func TestConsoleProgress(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		var sb strings.Builder
		c := NewConsole(&sb, verbose)
		c.Event(Event{Kind: PointStart, Label: "a", Total: 2})
		c.Event(Event{Kind: PointDone, Label: "a", Wall: time.Millisecond, Cycles: 1000, Done: 1, Total: 2})
		c.Event(Event{Kind: PointError, Label: "b", Err: errors.New("bad\nstack"), Done: 2, Total: 2})
		c.Finish()
		got := sb.String()
		if !strings.Contains(got, "FAILED") || !strings.Contains(got, "1 points") {
			t.Fatalf("verbose=%v output: %q", verbose, got)
		}
		if strings.Contains(got, "stack") {
			t.Fatalf("multi-line error leaked into console: %q", got)
		}
	}
}
