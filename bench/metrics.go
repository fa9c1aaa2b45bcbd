package main

import (
	"fmt"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are what a user running the sweep sees. An untraced run
// reports exactly these.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"points_per_s", "points/s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer break a sweep down by layer. A traced run reports exactly
// these; sums are per sweep, averaged over the traced sweeps. Metrics of a
// layer a workload does not use read 0, and none of those is a time.
var perLayer = []metricDef{
	{"sim.reset_s", "s"},
	{"sim.fresh_constructions", "count"},
	{"sim.attach_s", "s"},
	{"sim.measure_open_s", "s"},
	{"sim.measure_close_s", "s"},
	{"sim.alloc_bytes_per_point", "bytes"},
	{"sim.gc_cycles", "count"},
	{"traffic.tick_frac", "ratio"},
	{"traffic.packets_offered", "count"},
	{"noc.step_s", "s"},
	{"noc.cycles_stepped", "count"},
	{"noc.step_ns_per_cycle", "ns"},
	{"noc.step_ns_per_xbar_traversal", "ns"},
	{"noc.skip_s", "s"},
	{"noc.cycles_skipped", "count"},
	{"noc.skip_frac", "ratio"},
	{"noc.active_router_frac", "ratio"},
	{"noc.gating_transitions", "count"},
	{"cpusim.misses_completed", "count"},
	{"runner.points", "count"},
	{"runner.eval_s", "s"},
	{"runner.idle_s", "s"},
	{"runner.busy_frac", "ratio"},
	{"runner.point_p50_s", "s"},
	{"runner.point_max_s", "s"},
	{"explore.cache_hit_frac", "ratio"},
	{"explore.rerun_speedup", "x"},
	{"explore.front_size", "count"},
	{"model.power_reduction_pct", "%"},
	{"model.perf_cost_pct", "%"},
	{"model.light_csc_pct", "%"},
	{"trace.overhead", "x"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs each definition with its value. A definition without a
// value, or a value without a definition, is a bug in this file.
func emit(defs []metricDef, values map[string]float64) map[string]metric {
	if len(values) != len(defs) {
		panic(fmt.Sprintf("catnapbench: %d metric values for %d definitions", len(values), len(defs)))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("catnapbench: no value for metric " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// endToEndValues computes the end-to-end metrics from the timed sweeps,
// the set-up probes, and each timed sweep's peak resident set. Every
// sweep of a run does the same work, so the rates divide one sweep's
// points and cycles by the median sweep wall.
func endToEndValues(timed []*sweepResult, setups []time.Duration, peakRSSMB []float64) map[string]float64 {
	walls := make([]float64, len(timed))
	for i, r := range timed {
		walls[i] = r.wall.Seconds()
	}
	wall := median(walls)
	return map[string]float64{
		"wall_s":           wall,
		"points_per_s":     float64(timed[0].points) / wall,
		"sim_cycles_per_s": float64(timed[0].cycles) / wall,
		"setup_s":          median(seconds(setups)),
		"peak_rss_mb":      median(peakRSSMB),
	}
}

// perLayerValues computes the per-layer metrics from the traced sweeps,
// the untraced sweeps run beside them, the traced sweeps' allocation and
// GC deltas, and the reference sweep's rows.
func perLayerValues(traced, untraced []*sweepResult, jobs int, allocBytes uint64, gcCycles uint32, rows []record) map[string]float64 {
	n := float64(len(traced))
	var l layerStats
	var pointWalls []float64
	var evalS, slotS, speedup, hitFrac, front float64
	var cycles int64
	tracedWalls := make([]float64, len(traced))
	for i, r := range traced {
		l.merge(&r.layers)
		cycles += r.cycles
		for _, w := range r.pointWalls {
			pointWalls = append(pointWalls, w.Seconds())
			evalS += w.Seconds()
		}
		slotS += (r.wall - r.rerun).Seconds() * float64(jobs)
		if r.rerun > 0 {
			speedup += (r.wall - r.rerun).Seconds() / r.rerun.Seconds()
		}
		hitFrac += r.cacheHitFrac
		front += float64(r.frontSize)
		tracedWalls[i] = r.wall.Seconds()
	}
	untracedWalls := make([]float64, len(untraced))
	for i, r := range untraced {
		untracedWalls[i] = r.wall.Seconds()
	}
	power, perf, csc := headline(rows)
	c := &l.calls
	return map[string]float64{
		"sim.reset_s":                    l.reset.Seconds() / n,
		"sim.fresh_constructions":        float64(l.fresh) / n,
		"sim.attach_s":                   l.attach.Seconds() / n,
		"sim.measure_open_s":             l.open.Seconds() / n,
		"sim.measure_close_s":            l.close.Seconds() / n,
		"sim.alloc_bytes_per_point":      ratio(float64(allocBytes), float64(l.points)),
		"sim.gc_cycles":                  float64(gcCycles) / n,
		"traffic.tick_frac":              ratio(c.tick.total.Seconds(), l.point.Seconds()),
		"traffic.packets_offered":        float64(l.created) / n,
		"noc.step_s":                     c.step.total.Seconds() / n,
		"noc.cycles_stepped":             float64(c.step.count) / n,
		"noc.step_ns_per_cycle":          ratio(float64(c.step.total.Nanoseconds()), float64(c.step.count)),
		"noc.step_ns_per_xbar_traversal": ratio(float64(c.step.total.Nanoseconds()), float64(l.xbar)),
		"noc.skip_s":                     c.skip.total.Seconds() / n,
		"noc.cycles_skipped":             float64(c.skipped) / n,
		"noc.skip_frac":                  ratio(float64(c.skipped), float64(cycles)),
		"noc.active_router_frac":         ratio(float64(l.activeRouterCycles), float64(l.routerCycles)),
		"noc.gating_transitions":         float64(l.gatingTransitions) / n,
		"cpusim.misses_completed":        float64(l.missesCompleted) / n,
		"runner.points":                  float64(len(pointWalls)) / n,
		"runner.eval_s":                  evalS / n,
		"runner.idle_s":                  (slotS - evalS) / n,
		"runner.busy_frac":               ratio(evalS, slotS),
		"runner.point_p50_s":             median(pointWalls),
		"runner.point_max_s":             slices.Max(pointWalls),
		"explore.cache_hit_frac":         hitFrac / n,
		"explore.rerun_speedup":          speedup / n,
		"explore.front_size":             front / n,
		"model.power_reduction_pct":      power,
		"model.perf_cost_pct":            perf,
		"model.light_csc_pct":            csc,
		"trace.overhead":                 median(tracedWalls) / median(untracedWalls),
	}
}

// headline derives the paper's headline quantities from an app-mixes
// grid the way the library's "headline" experiment does: average network
// power of 4NT-128b-PG against 1NT-512b, the mean performance cost of
// 4NT-128b-PG, and its compensated sleep cycles on Light. Other grids
// give zeros.
func headline(rows []record) (powerReductionPct, perfCostPct, lightCSCPct float64) {
	baseIPC := map[string]float64{}
	var single, multi []float64
	for _, r := range rows {
		if r.Mix != "" && r.Design == "1NT-512b" {
			baseIPC[r.Mix] = r.Results.SystemIPC
			single = append(single, r.Results.Power.Total)
		}
	}
	var cost float64
	for _, r := range rows {
		if r.Mix == "" || r.Design != "4NT-128b-PG" {
			continue
		}
		multi = append(multi, r.Results.Power.Total)
		cost += 1 - ratio(r.Results.SystemIPC, baseIPC[r.Mix])
		if r.Mix == "Light" {
			lightCSCPct = r.Results.CSCPercent
		}
	}
	if len(single) == 0 || len(multi) == 0 {
		return 0, 0, lightCSCPct
	}
	return 100 * (1 - mean(multi)/mean(single)), 100 * cost / float64(len(multi)), lightCSCPct
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
