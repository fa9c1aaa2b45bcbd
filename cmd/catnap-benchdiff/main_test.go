package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(scenarios map[string]benchRow) benchReport {
	return benchReport{Cycles: 4500, Reps: 5, GOMAXPROCS: 8, NumCPU: 8, Scenarios: scenarios}
}

func baselineReport() benchReport {
	return report(map[string]benchRow{
		"lowload-gated":    {FastNsPerCycle: 100, RefNsPerCycle: 500, Speedup: 5},
		"saturation-gated": {FastNsPerCycle: 50, RefNsPerCycle: 200, Speedup: 4},
	})
}

func TestDiffNoRegression(t *testing.T) {
	var buf bytes.Buffer
	if diff(&buf, baselineReport(), baselineReport(), 10) {
		t.Fatalf("identical reports flagged as regression:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"lowload-gated", "saturation-gated", "GOMAXPROCS=8 NumCPU=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffCatchesScenarioSlowdown(t *testing.T) {
	newR := baselineReport()
	row := newR.Scenarios["lowload-gated"]
	row.FastNsPerCycle = 150 // +50%
	newR.Scenarios["lowload-gated"] = row

	var buf bytes.Buffer
	if !diff(&buf, baselineReport(), newR, 10) {
		t.Fatal("50% scenario slowdown not flagged at -fail-over 10")
	}
	if diff(&buf, baselineReport(), newR, 60) {
		t.Fatal("50% slowdown flagged at -fail-over 60")
	}
	if diff(&buf, baselineReport(), newR, 0) {
		t.Fatal("report-only mode (fail-over 0) flagged a regression")
	}
}

// TestDiffThroughputScenario covers the points/sec rows (sweep-reuse):
// a DROP in sweep throughput is the regression, a rise never is, and
// dropping the scenario outright still trips the coverage gate.
func TestDiffThroughputScenario(t *testing.T) {
	base := baselineReport()
	base.Scenarios["sweep-reuse"] = benchRow{
		FastNsPerCycle: 4400, RefNsPerCycle: 10700, Speedup: 2.4,
		FastPointsPerSec: 5600, RefPointsPerSec: 2300, RefMode: "fresh-construction",
	}

	slower := baselineReport()
	slower.Scenarios["sweep-reuse"] = benchRow{
		FastNsPerCycle: 8800, RefNsPerCycle: 10700, Speedup: 1.2,
		FastPointsPerSec: 2800, RefPointsPerSec: 2300, RefMode: "fresh-construction",
	}
	var buf bytes.Buffer
	if !diff(&buf, base, slower, 35) {
		t.Fatalf("50%% points/sec drop not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "pts/s") {
		t.Errorf("throughput row not reported in points/sec:\n%s", buf.String())
	}

	// The same pair reversed is a throughput improvement, and the matching
	// ns/cycle RISE (more provisioning amortized per point is slower per
	// cycle by construction) must not trip the ns/cycle gate.
	buf.Reset()
	if diff(&buf, slower, base, 35) {
		t.Fatalf("points/sec improvement flagged as regression:\n%s", buf.String())
	}

	// Baselines predating the points/sec columns compare as (new).
	buf.Reset()
	if diff(&buf, baselineReport(), base, 35) {
		t.Fatalf("throughput row vs pre-schema baseline flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "pts/s (new)") {
		t.Errorf("fresh throughput row not marked (new):\n%s", buf.String())
	}

	// Dropping the scenario is lost coverage exactly like any other row.
	buf.Reset()
	if !diff(&buf, base, baselineReport(), 35) {
		t.Fatal("dropped sweep-reuse scenario not flagged")
	}
	if !strings.Contains(buf.String(), "sweep-reuse") {
		t.Errorf("output does not name the dropped scenario:\n%s", buf.String())
	}
}

func TestDiffCatchesDroppedScenario(t *testing.T) {
	newR := baselineReport()
	delete(newR.Scenarios, "saturation-gated")
	var buf bytes.Buffer
	if !diff(&buf, baselineReport(), newR, 35) {
		t.Fatal("dropped scenario not flagged")
	}
	if !strings.Contains(buf.String(), "saturation-gated") {
		t.Errorf("output does not name the dropped scenario:\n%s", buf.String())
	}
}

// TestDiffNewScenarioAndPointNeverRegress: a scenario the baseline lacks,
// and a points/sec column a baseline row lacks, are fresh coverage that
// must never trip the gate.
func TestDiffNewScenarioAndPointNeverRegress(t *testing.T) {
	oldR := report(map[string]benchRow{
		"lowload-gated": {FastNsPerCycle: 100, RefNsPerCycle: 500, Speedup: 5},
		"sweep-reuse":   {FastNsPerCycle: 4400, RefNsPerCycle: 10700, Speedup: 2.4},
	})
	newR := baselineReport()
	newR.Scenarios["sweep-reuse"] = benchRow{
		FastNsPerCycle: 4400, RefNsPerCycle: 10700, Speedup: 2.4,
		FastPointsPerSec: 5600, RefPointsPerSec: 2300,
	}
	var buf bytes.Buffer
	if diff(&buf, oldR, newR, 10) {
		t.Fatalf("new coverage flagged as regression:\n%s", buf.String())
	}
	for _, want := range []string{"saturation-gated", "(new)", "pts/s (new)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("new rows not marked (%q missing):\n%s", want, buf.String())
		}
	}
}

// TestLoadIgnoresRetiredFields: baselines written before the
// GOMAXPROCS matrix and shard counts were retired still decode, the old
// fields silently ignored.
func TestLoadIgnoresRetiredFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"measure_cycles_per_run": 4500, "reps_min_of": 5, "scenarios": {
		"saturation-gated-parallel": {"fast_ns_per_cycle": 303459, "speedup": 0.87, "shards": 8,
			"gomaxprocs_points": [{"gomaxprocs": 2, "fast_ns_per_cycle": 317919, "speedup": 0.83}]}}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatalf("old-schema report rejected: %v", err)
	}
	if got := r.Scenarios["saturation-gated-parallel"].FastNsPerCycle; got != 303459 {
		t.Fatalf("old-schema row decoded as %v ns/cycle, want 303459", got)
	}
}

func TestLoadRejectsNonReports(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"cycles": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(bad); err == nil || !strings.Contains(err.Error(), "no scenarios") {
		t.Fatalf("scenario-less file accepted: %v", err)
	}
	if _, err := load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	good := filepath.Join(dir, "good.json")
	b, err := json.Marshal(baselineReport())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 2 || r.Scenarios["saturation-gated"].Speedup != 4 {
		t.Fatalf("round-trip lost data: %+v", r)
	}
}
