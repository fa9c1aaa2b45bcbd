package telemetry_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// testConfig is a small 4-subnet Catnap network: low base load so
// routers sleep and wake, with a burst that trips the BFM threshold so
// LCS/RCS events fire too.
func testConfig() noc.Config {
	return noc.Config{
		Rows: 4, Cols: 4, TilesPerNode: 4, RegionDim: 2,
		Subnets: 4, LinkWidthBits: 128,
		VCs: 2, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
}

func burstSchedule() traffic.Schedule {
	return traffic.Piecewise(
		traffic.Phase{Until: 400, Load: 0.02},
		traffic.Phase{Until: 700, Load: 0.45},
		traffic.Phase{Until: 1 << 62, Load: 0.02},
	)
}

// buildInstrumented wires a full Catnap stack (detector, selector,
// gating) plus a telemetry recorder. collectorFirst controls whether
// the telemetry collector or the congestion detector registers first as
// a cycle observer.
func buildInstrumented(t *testing.T, collectorFirst bool, opts telemetry.Options) (*noc.Network, *traffic.Generator, *telemetry.Recorder) {
	t.Helper()
	cfg := testConfig()
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	det := congestion.NewDetector(net, congestion.Config{Metric: congestion.BFM})
	net.SetSelector(core.NewCatnapSelector(det, cfg.Nodes()))
	net.SetGatingPolicy(core.NewCatnapGating(det))
	rec := telemetry.NewRecorder(opts)
	if collectorFirst {
		rec.Attach(net, det, "test")
		net.AddObserver(det)
	} else {
		net.AddObserver(det)
		rec.Attach(net, det, "test")
	}
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, burstSchedule(), 42)
	return net, gen, rec
}

func run(net *noc.Network, gen *traffic.Generator, cycles int64) {
	for i := int64(0); i < cycles; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
}

// readAllMetrics reads a whole JSONL metrics stream into memory.
func readAllMetrics(r io.Reader) ([]telemetry.MetricPoint, error) {
	var out []telemetry.MetricPoint
	err := telemetry.ReadMetrics(r, func(p telemetry.MetricPoint) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

// TestObserverOrderIndependence: registering the telemetry collector
// before or after the congestion detector must not change the
// simulation or the telemetry output. Transitions reach the collector
// by callback from whoever makes them, and the collector's own
// AfterCycle only reads phase-settled state, so order cannot matter.
func TestObserverOrderIndependence(t *testing.T) {
	var runs [2]struct {
		events  []telemetry.Event
		metrics []telemetry.MetricPoint
		ejected int64
	}
	for i, first := range []bool{true, false} {
		net, gen, rec := buildInstrumented(t, first, telemetry.Options{Window: 50, RingCap: 1 << 16})
		run(net, gen, 1500)
		runs[i].events = rec.Log().Events()
		runs[i].metrics = rec.Metrics()
		_, _, runs[i].ejected = net.Counts()
	}
	if runs[0].ejected == 0 {
		t.Fatal("no packets delivered; test traffic is broken")
	}
	if runs[0].ejected != runs[1].ejected {
		t.Errorf("delivered packets differ by observer order: %d vs %d", runs[0].ejected, runs[1].ejected)
	}
	if !reflect.DeepEqual(runs[0].events, runs[1].events) {
		t.Errorf("event logs differ by observer order (%d vs %d events)", len(runs[0].events), len(runs[1].events))
	}
	if !reflect.DeepEqual(runs[0].metrics, runs[1].metrics) {
		t.Errorf("metrics differ by observer order (%d vs %d points)", len(runs[0].metrics), len(runs[1].metrics))
	}
}

// TestCollectorEventsAndMetrics drives sleep/wake and congestion
// activity and checks the recorded events and series invariants.
func TestCollectorEventsAndMetrics(t *testing.T) {
	const cycles = 1500
	net, gen, rec := buildInstrumented(t, false, telemetry.Options{Window: 50, RingCap: 1 << 16})
	run(net, gen, cycles)

	log := rec.Log()
	if log.Count(telemetry.EventRouterSleep) == 0 {
		t.Error("no router.sleep events at low load with Catnap gating")
	}
	if log.Count(telemetry.EventRouterWake) == 0 {
		t.Error("no router.wake events")
	}
	if log.Count(telemetry.EventCongestionOn) == 0 {
		t.Error("no congestion.on events despite 0.45-load burst")
	}
	causes := map[string]bool{}
	for _, e := range log.Events() {
		switch e.Type {
		case telemetry.EventRouterSleep:
			if e.Cause != "idle-detect" {
				t.Fatalf("router.sleep cause = %q", e.Cause)
			}
			if e.Subnet < 0 || e.Subnet >= net.Subnets() || e.Node < 0 || e.Node >= 16 {
				t.Fatalf("router.sleep out of range: %+v", e)
			}
		case telemetry.EventRouterWake:
			causes[e.Cause] = true
			if e.Slept <= 0 {
				t.Fatalf("router.wake with non-positive sleep period: %+v", e)
			}
		}
	}
	for c := range causes {
		if c != "look-ahead" && c != "ni" && c != "policy" {
			t.Errorf("unknown wake cause %q", c)
		}
	}

	counters := map[string]float64{}
	perWindow := map[int64][]float64{} // subnet-0 power-state sums per window end
	points := rec.Metrics()
	flitTotal := 0.0
	for _, p := range points {
		if p.Label != "test" {
			t.Fatalf("point label = %q, want test", p.Label)
		}
		if p.Cycle == -1 {
			counters[p.Metric] = p.Value
			continue
		}
		switch p.Metric {
		case telemetry.MetricActiveRouterCycles, telemetry.MetricWakingRouterCycles, telemetry.MetricAsleepRouterCycles:
			if p.Subnet == 0 {
				perWindow[p.Cycle] = append(perWindow[p.Cycle], p.Value)
			}
		case telemetry.MetricInjectedFlits:
			flitTotal += p.Value
		}
	}
	if counters[telemetry.MetricCyclesSampled] != cycles {
		t.Errorf("cycles sampled = %v, want %v", counters[telemetry.MetricCyclesSampled], cycles)
	}
	if got, want := int64(counters[telemetry.MetricSleeps]), log.Count(telemetry.EventRouterSleep); got != want {
		t.Errorf("sleep counter %d != sleep events %d", got, want)
	}
	wakes := int64(counters[telemetry.MetricWakesLookAhd] + counters[telemetry.MetricWakesNI] + counters[telemetry.MetricWakesPolicy])
	if want := log.Count(telemetry.EventRouterWake); wakes != want {
		t.Errorf("wake counters %d != wake events %d", wakes, want)
	}
	if len(perWindow) != cycles/50 {
		t.Errorf("subnet-0 power-state windows = %d, want %d", len(perWindow), cycles/50)
	}
	for cut, vals := range perWindow {
		if len(vals) != 3 {
			t.Fatalf("window %d has %d power-state series values", cut, len(vals))
		}
		if sum := vals[0] + vals[1] + vals[2]; sum != 50*16 {
			t.Errorf("window %d power states sum to %v router-cycles, want %v", cut, sum, 50*16)
		}
	}
	flits := int64(0)
	for _, f := range net.FlitsPerSubnet() {
		flits += f
	}
	if int64(flitTotal) != flits {
		t.Errorf("windowed injected flits total %v, want %d", flitTotal, flits)
	}
}

// TestEventStreamRoundTrip checks the streaming JSONL sink reproduces
// the in-memory log exactly through ReadAllEvents.
func TestEventStreamRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	net, gen, rec := buildInstrumented(t, false, telemetry.Options{RingCap: 1 << 16, Events: &sink})
	run(net, gen, 800)
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if log := rec.Log(); log.Total() != int64(len(log.Events())) {
		t.Fatalf("ring dropped events; raise RingCap for this test")
	}
	got, err := telemetry.ReadAllEvents(&sink)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	want := rec.Log().Events()
	if len(want) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sink round-trip mismatch: %d vs %d events", len(got), len(want))
	}
}

// TestMetricsRoundTrip checks JSONL metrics survive write+read and the
// CSV export has one row per point.
func TestMetricsRoundTrip(t *testing.T) {
	net, gen, rec := buildInstrumented(t, false, telemetry.Options{Window: 50})
	run(net, gen, 500)
	want := rec.Metrics()
	if len(want) == 0 {
		t.Fatal("no metric points")
	}

	var jsonl bytes.Buffer
	if err := telemetry.WriteMetricsJSONL(&jsonl, want); err != nil {
		t.Fatalf("write jsonl: %v", err)
	}
	got, err := readAllMetrics(&jsonl)
	if err != nil {
		t.Fatalf("read jsonl: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("jsonl round-trip mismatch: %d vs %d points", len(got), len(want))
	}

	var csvBuf bytes.Buffer
	if err := telemetry.WriteMetricsCSV(&csvBuf, want); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	rows, err := csv.NewReader(strings.NewReader(csvBuf.String())).ReadAll()
	if err != nil {
		t.Fatalf("parse csv: %v", err)
	}
	if len(rows) != len(want)+1 {
		t.Errorf("csv rows = %d, want %d (+header)", len(rows), len(want)+1)
	}
}

// TestLogRingBound checks the bounded ring keeps only the newest events
// and accounts for drops.
func TestLogRingBound(t *testing.T) {
	l := telemetry.NewLog(4, nil)
	for i := 0; i < 10; i++ {
		l.Append(telemetry.Event{Cycle: int64(i), Type: telemetry.EventRouterSleep, Subnet: -1, Node: -1})
	}
	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != int64(6+i) {
			t.Errorf("ring[%d].Cycle = %d, want %d", i, e.Cycle, 6+i)
		}
	}
	if dropped := l.Total() - int64(len(ev)); l.Total() != 10 || dropped != 6 {
		t.Errorf("total=%d dropped=%d, want 10/6", l.Total(), dropped)
	}
}

// TestOpenFiles covers the command-line set-up: with both paths empty
// the recorder is nil and finish does nothing; an unwritable metrics
// path fails at set-up, before any run; otherwise the event stream holds
// every event and the metrics file, CSV or JSONL by suffix, holds every
// metric point.
func TestOpenFiles(t *testing.T) {
	rec, finish, err := telemetry.OpenFiles("", "", 0)
	if err != nil || rec != nil || finish() != nil {
		t.Fatalf("both paths empty: recorder %v, err %v", rec, err)
	}
	dir := t.TempDir()
	if _, _, err := telemetry.OpenFiles(filepath.Join(dir, "missing", "m.jsonl"), filepath.Join(dir, "e.jsonl"), 0); err == nil {
		t.Error("OpenFiles accepted a metrics path under a missing directory")
	}
	for _, name := range []string{"m.jsonl", "m.csv"} {
		dir := t.TempDir()
		metricsPath, eventsPath := filepath.Join(dir, name), filepath.Join(dir, "e.jsonl")
		rec, finish, err := telemetry.OpenFiles(metricsPath, eventsPath, 50)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		net.SetGatingPolicy(core.BaselineGating{})
		rec.Attach(net, nil, "files")
		run(net, traffic.NewGenerator(net, traffic.UniformRandom{}, burstSchedule(), 42), 500)
		if err := finish(); err != nil {
			t.Fatal(err)
		}

		ef, err := os.Open(eventsPath)
		if err != nil {
			t.Fatal(err)
		}
		events, err := telemetry.ReadAllEvents(ef)
		ef.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 || int64(len(events)) != rec.Log().Total() {
			t.Errorf("%s: event stream holds %d events, recorder saw %d", name, len(events), rec.Log().Total())
		}

		data, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		want := rec.Metrics()
		if len(want) == 0 {
			t.Fatal("no metric points")
		}
		if strings.HasSuffix(name, ".csv") {
			rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
			if err != nil {
				t.Fatalf("parse csv: %v", err)
			}
			if len(rows) != len(want)+1 {
				t.Errorf("csv rows = %d, want %d (+header)", len(rows), len(want)+1)
			}
		} else {
			got, err := readAllMetrics(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("read jsonl: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("jsonl metrics file: %d points, want %d", len(got), len(want))
			}
		}
	}
}
