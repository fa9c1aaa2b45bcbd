// Command catnap-trace analyzes a JSONL packet trace produced by
// catnap-sweep -trace (or Simulator.EnableTrace): it prints the aggregate
// summary, a latency histogram, per-subnet and per-class breakdowns, and
// optionally a windowed throughput series. Gzipped traces (.gz) are
// detected and decompressed automatically.
//
// It also summarizes telemetry files written by the other tools'
// -metrics/-events flags (see internal/telemetry for the schema):
// -metrics prints per-metric totals, -events an event-type census.
//
// Usage:
//
//	catnap-trace [-series 50] trace.jsonl
//	catnap-trace -metrics m.jsonl
//	catnap-trace -events e.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/trace"
)

var (
	seriesWindow = flag.Int64("series", 0, "also print a throughput series with this window (cycles); 0 disables")
	metricsFile  = flag.String("metrics", "", "summarize a telemetry metrics file (JSONL) instead of a packet trace")
	eventsFile   = flag.String("events", "", "summarize a telemetry events file (JSONL) instead of a packet trace")
)

func main() {
	flag.Parse()
	telemetryMode := *metricsFile != "" || *eventsFile != ""
	if (flag.NArg() != 1 && !telemetryMode) || (flag.NArg() != 0 && telemetryMode) {
		fmt.Fprintln(os.Stderr, "usage: catnap-trace [-series N] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       catnap-trace -metrics m.jsonl | -events e.jsonl")
		os.Exit(2)
	}
	var err error
	switch {
	case telemetryMode:
		if *metricsFile != "" {
			err = reportMetrics(*metricsFile)
		}
		if err == nil && *eventsFile != "" {
			err = reportEvents(*eventsFile)
		}
	default:
		err = run(flag.Arg(0), *seriesWindow)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "catnap-trace:", err)
		os.Exit(1)
	}
}

// reportMetrics streams a telemetry metrics JSONL file and prints one
// line per (metric, label, subnet): counters verbatim, windowed series
// as window count + sum.
func reportMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	type key struct {
		metric string
		label  string
		subnet int
	}
	type agg struct {
		windows int64
		sum     float64
		counter bool
	}
	sums := map[key]*agg{}
	var order []key
	err = telemetry.ReadMetrics(f, func(p telemetry.MetricPoint) error {
		k := key{p.Metric, p.Label, p.Subnet}
		a := sums[k]
		if a == nil {
			a = &agg{}
			sums[k] = a
			order = append(order, k)
		}
		if p.Cycle < 0 {
			a.counter = true
			a.sum += p.Value
		} else {
			a.windows++
			a.sum += p.Value
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(order) == 0 {
		fmt.Println("empty metrics file")
		return nil
	}
	fmt.Printf("%-34s %-22s %7s %8s %14s\n", "metric", "label", "subnet", "windows", "total")
	for _, k := range order {
		a := sums[k]
		sub := fmt.Sprint(k.subnet)
		if k.subnet < 0 {
			sub = "-"
		}
		windows := fmt.Sprint(a.windows)
		if a.counter {
			windows = "-"
		}
		fmt.Printf("%-34s %-22s %7s %8s %14.0f\n", k.metric, k.label, sub, windows, a.sum)
	}
	return nil
}

// reportEvents streams a telemetry events JSONL file and prints an
// event-type census plus the covered cycle span.
func reportEvents(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	counts := map[telemetry.EventType]int64{}
	var order []telemetry.EventType
	var total, first, last int64
	first = 1<<63 - 1
	err = telemetry.ReadEvents(f, func(e telemetry.Event) error {
		if counts[e.Type] == 0 {
			order = append(order, e.Type)
		}
		counts[e.Type]++
		total++
		if e.Cycle >= 0 {
			if e.Cycle < first {
				first = e.Cycle
			}
			if e.Cycle > last {
				last = e.Cycle
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total == 0 {
		fmt.Println("empty events file")
		return nil
	}
	if first <= last {
		fmt.Printf("%d events over cycles %d-%d\n", total, first, last)
	} else {
		fmt.Printf("%d events\n", total)
	}
	for _, t := range order {
		c := counts[t]
		fmt.Printf("  %-18s %8d (%5.1f%%) %s\n", t, c, 100*float64(c)/float64(total), bar(float64(c)/float64(total)))
	}
	return nil
}

// analysis folds every aggregate the report needs in one streaming pass,
// so the trace is read exactly once and never materialized (gzip inputs
// could not Seek for a second pass anyway).
type analysis struct {
	packets   int64
	latSum    int64
	maxLat    int64
	first     int64
	last      int64
	perSubnet map[int]int64
	perClass  map[noc.MsgClass]int64
	bounds    []int64
	counts    []int64
	window    int64
	series    map[int64]int64
}

func newAnalysis(window int64) *analysis {
	return &analysis{
		first:     1<<63 - 1,
		perSubnet: map[int]int64{},
		perClass:  map[noc.MsgClass]int64{},
		bounds:    []int64{10, 20, 40, 80, 160, 320, 640, 1280, 1 << 62},
		counts:    make([]int64, 9),
		window:    window,
		series:    map[int64]int64{},
	}
}

func (a *analysis) observe(r trace.Record) error {
	a.packets++
	lat := r.Latency()
	a.latSum += lat
	if lat > a.maxLat {
		a.maxLat = lat
	}
	a.perSubnet[r.Subnet]++
	a.perClass[r.Class]++
	if r.Create < a.first {
		a.first = r.Create
	}
	if r.Arrive > a.last {
		a.last = r.Arrive
	}
	for i, b := range a.bounds {
		if lat <= b {
			a.counts[i]++
			break
		}
	}
	if a.window > 0 {
		a.series[r.Arrive/a.window]++
	}
	return nil
}

func run(path string, window int64) error {
	if window < 0 {
		return fmt.Errorf("-series %d: want >= 0 cycles (0 disables)", window)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	defer tr.Close()

	a := newAnalysis(window)
	if err := tr.Each(a.observe); err != nil {
		return err
	}
	if a.packets == 0 {
		fmt.Println("empty trace")
		return nil
	}
	a.report()
	return nil
}

func (a *analysis) report() {
	span := a.last - a.first
	fmt.Printf("packets: %d over %d cycles (%.4f packets/cycle)\n",
		a.packets, span, float64(a.packets)/float64(span))
	fmt.Printf("latency: mean %.1f, max %d cycles\n",
		float64(a.latSum)/float64(a.packets), a.maxLat)

	fmt.Println("\nper subnet:")
	subnets := make([]int, 0, len(a.perSubnet))
	for s := range a.perSubnet {
		subnets = append(subnets, s)
	}
	sort.Ints(subnets)
	for _, s := range subnets {
		c := a.perSubnet[s]
		fmt.Printf("  subnet %d: %8d (%5.1f%%) %s\n", s, c,
			100*float64(c)/float64(a.packets), bar(float64(c)/float64(a.packets)))
	}

	fmt.Println("\nper message class:")
	for class, c := range a.perClass {
		fmt.Printf("  %-5v %8d (%5.1f%%)\n", class, c, 100*float64(c)/float64(a.packets))
	}

	fmt.Println("\nlatency histogram (cycles):")
	prev := int64(0)
	for i, b := range a.bounds {
		label := fmt.Sprintf("%d-%d", prev+1, b)
		if i == len(a.bounds)-1 {
			label = fmt.Sprintf(">%d", prev)
		}
		frac := float64(a.counts[i]) / float64(a.packets)
		fmt.Printf("  %-10s %8d (%5.1f%%) %s\n", label, a.counts[i], 100*frac, bar(frac))
		prev = b
	}

	if a.window > 0 {
		fmt.Printf("\ndeliveries per %d-cycle window:\n", a.window)
		keys := make([]int64, 0, len(a.series))
		for k := range a.series {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fmt.Printf("  %8d %6d %s\n", k*a.window, a.series[k], bar(float64(a.series[k])/float64(maxVal(a.series))))
		}
	}
}

func bar(frac float64) string {
	n := int(frac*40 + 0.5)
	return strings.Repeat("#", n)
}

func maxVal(m map[int64]int64) int64 {
	var mx int64 = 1
	for _, v := range m {
		if v > mx {
			mx = v
		}
	}
	return mx
}
