package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(probeEnv); spec != "" {
		os.Exit(probeMain(spec))
	}
	os.Exit(m.Run())
}

// TestDigestsAgree runs every workload at its tiny size with fresh
// construction, on per-worker pools, and on the traced path; all three
// must produce the same digest.
func TestDigestsAgree(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sw := w.build(3, true)
			digests := map[string]string{}
			for name, o := range map[string]runOpts{
				"fresh":  {jobs: 2, fresh: true},
				"pooled": {jobs: 2},
				"traced": {jobs: 2, traced: true},
			} {
				r, err := sw.run(context.Background(), o)
				if err != nil {
					t.Fatalf("%s sweep: %v", name, err)
				}
				if r.failed != 0 {
					t.Fatalf("%s sweep: %d of %d points failed", name, r.failed, r.points)
				}
				if o.traced && r.layers.points == 0 {
					t.Errorf("traced sweep recorded no points")
				}
				digests[name] = digest(r.records)
			}
			if digests["pooled"] != digests["fresh"] || digests["traced"] != digests["fresh"] {
				t.Errorf("digests differ: %v", digests)
			}
		})
	}
}

// TestSpansFile checks the -spans output: every traced point writes a
// point span and its six children, linked by trace and parent IDs.
func TestSpansFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	w, err := workloadByName("lowload-reps")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(context.Background(), config{w: w, seed: 1, trace: true, jobs: 2, tiny: true, spansPath: path})
	if err != nil || !rep.Correct {
		t.Fatalf("traced run: correct=%v, err=%v", rep != nil && rep.Correct, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	children := map[int64][]string{}
	points := 0
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Name == "point" {
			points++
			if s.ID != s.Trace*8 || s.Parent != 0 || s.Label == "" {
				t.Errorf("point span %+v", s)
			}
			continue
		}
		if s.Parent != s.Trace*8 {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, s.Trace*8)
		}
		children[s.Trace] = append(children[s.Trace], s.Name)
		// At zero load idle skip may elide every step, never every attempt.
		if (s.Name == "sim.warmup" || s.Name == "sim.measure") && s.Calls["noc.skip"].Count == 0 {
			t.Errorf("span %s carries no per-cycle calls", s.Name)
		}
	}
	want := "sim.reset sim.attach sim.warmup sim.measure_open sim.measure sim.measure_close"
	if points != len(children) || points != int(rep.layers.points) {
		t.Errorf("%d point spans, %d traces with children, %d traced points", points, len(children), rep.layers.points)
	}
	for trace, names := range children {
		if got := strings.Join(names, " "); got != want {
			t.Errorf("trace %d children %q, want %q", trace, got, want)
		}
	}
}

// TestMismatchCountsPoints pins how a differing record is charged: one
// grid point per record, every campaign point for a campaign's front.
func TestMismatchCountsPoints(t *testing.T) {
	ref := &sweepResult{records: [][]byte{[]byte("a"), []byte("b"), []byte("c")}, points: 3}
	r := &sweepResult{records: [][]byte{[]byte("a"), []byte("x"), nil}, points: 3}
	if got := mismatched(ref, r); got != 2 {
		t.Errorf("grid: %d mismatched points, want 2", got)
	}
	ref = &sweepResult{records: [][]byte{[]byte("front")}, points: 64}
	r = &sweepResult{records: [][]byte{[]byte("other")}, points: 64}
	if got := mismatched(ref, r); got != 64 {
		t.Errorf("campaign: %d mismatched points, want 64", got)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads in the same order, and each run emitting exactly the metrics
// it names, with their units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program; want the same 2 to 8", n, len(workloads))
	}
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1-200", w.Name, len(w.Why))
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want in (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, names := range []map[string]string{want[false], want[true]} {
		for n := range names {
			if seen[n] || !nameRE.MatchString(n) {
				t.Errorf("metric name %q is repeated or malformed", n)
			}
			seen[n] = true
		}
	}
	for _, w := range bf.Workloads {
		if seen[w.Name] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is repeated or malformed", w.Name)
		}
		seen[w.Name] = true
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			rep, err := run(ctx, config{w: w, seed: 1, trace: trace, jobs: 2, tiny: true})
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t, %d of %d failed", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			got := map[string]string{}
			for n, m := range rep.Metrics {
				got[n] = m.Unit
			}
			for n, u := range want[trace] {
				if got[n] != u {
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", w.name, trace, n, got[n], u)
				}
			}
			for n := range got {
				if _, ok := want[trace][n]; !ok {
					t.Errorf("%s trace=%t: emits %s, which BENCHMARK.json does not name", w.name, trace, n)
				}
			}
		}
	}
}
