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
		"lowload-gated": {FastNsPerCycle: 100, RefNsPerCycle: 500, Speedup: 5},
		"sharded": {
			FastNsPerCycle: 50, RefNsPerCycle: 200, Speedup: 4, Shards: 8,
			GOMAXPROCSPoints: []gmpPoint{
				{GOMAXPROCS: 1, FastNsPerCycle: 180, Speedup: 1.1},
				{GOMAXPROCS: 4, FastNsPerCycle: 70, Speedup: 2.9},
				{GOMAXPROCS: 8, FastNsPerCycle: 50, Speedup: 4},
			},
		},
	})
}

func TestDiffNoRegression(t *testing.T) {
	var buf bytes.Buffer
	if diff(&buf, baselineReport(), baselineReport(), 10) {
		t.Fatalf("identical reports flagged as regression:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"lowload-gated", "GOMAXPROCS=1", "GOMAXPROCS=4", "GOMAXPROCS=8"} {
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

func TestDiffCatchesGMPPointSlowdown(t *testing.T) {
	// The scenario headline improves while one GOMAXPROCS point craters:
	// exactly the multicore regression the per-point diff exists to catch.
	newR := baselineReport()
	row := newR.Scenarios["sharded"]
	row.FastNsPerCycle = 45
	row.GOMAXPROCSPoints = []gmpPoint{
		{GOMAXPROCS: 1, FastNsPerCycle: 170, Speedup: 1.2},
		{GOMAXPROCS: 4, FastNsPerCycle: 160, Speedup: 1.3}, // was 70
		{GOMAXPROCS: 8, FastNsPerCycle: 45, Speedup: 4.4},
	}
	newR.Scenarios["sharded"] = row

	var buf bytes.Buffer
	if !diff(&buf, baselineReport(), newR, 35) {
		t.Fatalf("GOMAXPROCS=4 slowdown hidden by improved headline:\n%s", buf.String())
	}
}

func TestDiffCatchesDroppedGMPPoint(t *testing.T) {
	newR := baselineReport()
	row := newR.Scenarios["sharded"]
	row.GOMAXPROCSPoints = row.GOMAXPROCSPoints[:2] // GOMAXPROCS=8 gone
	newR.Scenarios["sharded"] = row

	var buf bytes.Buffer
	if !diff(&buf, baselineReport(), newR, 35) {
		t.Fatal("dropped GOMAXPROCS point not flagged")
	}
	if !strings.Contains(buf.String(), "dropped from new report") {
		t.Errorf("output does not name the dropped point:\n%s", buf.String())
	}
	// Report-only mode still prints the drop but does not fail.
	buf.Reset()
	if diff(&buf, baselineReport(), newR, 0) {
		t.Fatal("report-only mode failed on dropped point")
	}
	if !strings.Contains(buf.String(), "dropped from new report") {
		t.Error("report-only mode hid the dropped point")
	}
}

// TestDiffPointAboveNewNumCPUNotDropped: a smaller host records no
// GOMAXPROCS point above its CPU count, which is not lost coverage.
func TestDiffPointAboveNewNumCPUNotDropped(t *testing.T) {
	newR := baselineReport()
	newR.NumCPU = 4
	row := newR.Scenarios["sharded"]
	row.GOMAXPROCSPoints = row.GOMAXPROCSPoints[:2] // GOMAXPROCS=8 not measurable
	newR.Scenarios["sharded"] = row

	var buf bytes.Buffer
	if diff(&buf, baselineReport(), newR, 35) {
		t.Fatalf("point above the new host's NumCPU flagged as dropped:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "not measurable on the new host") {
		t.Errorf("output does not explain the missing point:\n%s", buf.String())
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
	delete(newR.Scenarios, "sharded")
	var buf bytes.Buffer
	if !diff(&buf, baselineReport(), newR, 35) {
		t.Fatal("dropped scenario not flagged")
	}
	if !strings.Contains(buf.String(), "sharded") {
		t.Errorf("output does not name the dropped scenario:\n%s", buf.String())
	}
}

func TestDiffNewScenarioAndPointNeverRegress(t *testing.T) {
	// Old baselines predate both the explore-cached scenario and the
	// GOMAXPROCS matrix; fresh coverage must never trip the gate.
	oldR := report(map[string]benchRow{
		"lowload-gated": {FastNsPerCycle: 100, RefNsPerCycle: 500, Speedup: 5},
	})
	var buf bytes.Buffer
	if diff(&buf, oldR, baselineReport(), 10) {
		t.Fatalf("new coverage flagged as regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "(new)") {
		t.Errorf("new rows not marked:\n%s", buf.String())
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
	if len(r.Scenarios) != 2 || r.Scenarios["sharded"].GOMAXPROCSPoints[2].GOMAXPROCS != 8 {
		t.Fatalf("round-trip lost data: %+v", r)
	}
}
