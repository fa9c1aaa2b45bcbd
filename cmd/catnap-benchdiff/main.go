// Command catnap-benchdiff compares two BENCH_core.json reports (as
// written by `make bench-core`) and prints per-scenario deltas: ns/cycle,
// bytes/cycle, and speedup for the fast arm. Throughput-style scenarios
// (sweep-reuse) are reported in points/sec instead — their ns/cycle
// column spreads per-point provisioning cost over simulated cycles and is
// meaningless as a stepping cost — and regress when the sweep throughput
// DROPS by more than the threshold. It tolerates reports that predate the
// points/sec columns, and reports from older schemas whose extra fields
// (a per-GOMAXPROCS matrix, shard counts) are ignored on decode, so an
// old baseline still diffs.
//
// Usage:
//
//	catnap-benchdiff [-fail-over PCT] old.json new.json
//
// With -fail-over set, the exit status is 1 if any scenario's fast arm
// slowed down by more than PCT percent, or if a scenario present in the
// baseline is missing from the new report — a silently narrowed matrix is
// a regression in coverage even when every surviving number improved.
// Without -fail-over the tool is report-only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchRow mirrors one scenario entry of BENCH_core.json. The points/sec
// columns are set only by throughput-style scenarios (sweep-reuse), where
// ns/cycle spreads per-point provisioning cost over simulated cycles and
// is not a stepping cost; those rows are reported in points/sec instead.
type benchRow struct {
	FastNsPerCycle    float64 `json:"fast_ns_per_cycle"`
	RefNsPerCycle     float64 `json:"ref_ns_per_cycle"`
	Speedup           float64 `json:"speedup"`
	FastBytesPerCycle float64 `json:"fast_bytes_per_cycle"`
	RefBytesPerCycle  float64 `json:"ref_bytes_per_cycle"`
	RefMode           string  `json:"ref_mode"`
	FastPointsPerSec  float64 `json:"fast_points_per_sec"`
	RefPointsPerSec   float64 `json:"ref_points_per_sec"`
}

// benchReport mirrors the top level of BENCH_core.json.
type benchReport struct {
	Cycles     int64               `json:"measure_cycles_per_run"`
	Reps       int                 `json:"reps_min_of"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu"`
	Scenarios  map[string]benchRow `json:"scenarios"`
}

func load(path string) (benchReport, error) {
	var r benchReport
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if r.Scenarios == nil {
		return r, fmt.Errorf("%s: no scenarios section (not a BENCH_core.json report?)", path)
	}
	return r, nil
}

// pct returns the relative change new-vs-old in percent; +Inf-ish cases
// (old == 0) report 0 so a fresh metric never trips the regression gate.
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// diff writes the full comparison to w and reports whether the new
// report regressed: a scenario's fast arm slower by more than failOver
// percent, or a baseline scenario dropped from the new report.
// failOver <= 0 means report-only — nothing regresses.
func diff(w io.Writer, oldR, newR benchReport, failOver float64) bool {
	if oldR.Cycles != newR.Cycles || oldR.Reps != newR.Reps {
		fmt.Fprintf(w, "note: window mismatch (old %d cycles x%d reps, new %d cycles x%d reps); deltas compare different workloads\n",
			oldR.Cycles, oldR.Reps, newR.Cycles, newR.Reps)
	}
	fmt.Fprintf(w, "old: GOMAXPROCS=%d NumCPU=%d   new: GOMAXPROCS=%d NumCPU=%d\n",
		oldR.GOMAXPROCS, oldR.NumCPU, newR.GOMAXPROCS, newR.NumCPU)
	fmt.Fprintf(w, "%-26s %22s %18s %18s\n", "scenario", "fast ns/cycle", "fast B/cycle", "speedup")

	names := make([]string, 0, len(newR.Scenarios))
	for name := range newR.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)

	regressed := false
	for _, name := range names {
		n := newR.Scenarios[name]
		o, ok := oldR.Scenarios[name]
		// Throughput-style scenarios (sweep-reuse) report points/sec:
		// their ns/cycle is provisioning cost spread over simulated
		// cycles, so the sweep throughput is the comparable number and a
		// DROP in it (not a rise) is the regression.
		if n.FastPointsPerSec > 0 {
			if !ok || o.FastPointsPerSec == 0 {
				fmt.Fprintf(w, "%-26s %12.0f pts/s (new)   %8.2fx (new)\n", name, n.FastPointsPerSec, n.Speedup)
			} else {
				d := pct(o.FastPointsPerSec, n.FastPointsPerSec)
				if failOver > 0 && d < -failOver {
					regressed = true
				}
				fmt.Fprintf(w, "%-26s %8.0f -> %8.0f pts/s (%+6.1f%%)   %5.2fx -> %5.2fx\n",
					name, o.FastPointsPerSec, n.FastPointsPerSec, d, o.Speedup, n.Speedup)
			}
			continue
		}
		if !ok {
			fmt.Fprintf(w, "%-26s %12.1f (new)    %10.1f (new)  %8.2fx (new)\n",
				name, n.FastNsPerCycle, n.FastBytesPerCycle, n.Speedup)
			continue
		}
		d := pct(o.FastNsPerCycle, n.FastNsPerCycle)
		if failOver > 0 && d > failOver {
			regressed = true
		}
		fmt.Fprintf(w, "%-26s %8.1f -> %8.1f (%+6.1f%%) %6.1f -> %6.1f  %5.2fx -> %5.2fx\n",
			name, o.FastNsPerCycle, n.FastNsPerCycle, d, o.FastBytesPerCycle, n.FastBytesPerCycle, o.Speedup, n.Speedup)
	}
	dropped := make([]string, 0)
	for name := range oldR.Scenarios {
		if _, ok := newR.Scenarios[name]; !ok {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		fmt.Fprintf(w, "%-26s dropped from new report\n", name)
		if failOver > 0 {
			regressed = true
		}
	}

	if regressed {
		fmt.Fprintf(w, "catnap-benchdiff: regression — a fast arm slowed down by more than %.1f%% or baseline coverage was dropped\n", failOver)
	}
	return regressed
}

func main() {
	failOver := flag.Float64("fail-over", 0, "exit 1 if any fast arm slows down by more than this percent or baseline coverage is dropped (0 = report only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: catnap-benchdiff [-fail-over PCT] old.json new.json")
		os.Exit(2)
	}
	oldR, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-benchdiff:", err)
		os.Exit(2)
	}
	newR, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-benchdiff:", err)
		os.Exit(2)
	}
	if diff(os.Stdout, oldR, newR, *failOver) {
		os.Exit(1)
	}
}
