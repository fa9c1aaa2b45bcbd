package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/trace"
)

// traceCommand analyzes a JSONL packet trace written by catnap sweep
// -trace (or Simulator.EnableTrace): it prints the aggregate summary, a
// latency histogram, per-subnet and per-class breakdowns, and with
// -series a windowed throughput series. Gzipped traces (.gz) are
// detected and decompressed automatically.
//
// It also summarizes the telemetry files that -metrics/-events write
// (see internal/telemetry for the schema): -metrics prints per-metric
// totals, -events an event-type census.
//
//	catnap trace -series 50 trace.jsonl
//	catnap trace -metrics m.jsonl
//	catnap trace -events e.jsonl
func traceCommand(a *app, fs *flag.FlagSet) func([]string) error {
	series := fs.Int64("series", 0, "also print a throughput series with this window (cycles); 0 disables")
	metrics := fs.String("metrics", "", "summarize a telemetry metrics file (JSONL) instead of a packet trace")
	events := fs.String("events", "", "summarize a telemetry events file (JSONL) instead of a packet trace")
	return func(args []string) error {
		telemetryMode := *metrics != "" || *events != ""
		if (len(args) != 1 && !telemetryMode) || (len(args) != 0 && telemetryMode) {
			return errUsage
		}
		if !telemetryMode {
			return reportTrace(a.stdout, args[0], *series)
		}
		if *metrics != "" {
			if err := reportMetrics(a.stdout, *metrics); err != nil {
				return err
			}
		}
		if *events != "" {
			return reportEvents(a.stdout, *events)
		}
		return nil
	}
}

// reportMetrics streams a telemetry metrics JSONL file and prints one
// line per (metric, label, subnet): counters verbatim, windowed series
// as window count + sum.
func reportMetrics(w io.Writer, path string) error {
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
		fmt.Fprintln(w, "empty metrics file")
		return nil
	}
	fmt.Fprintf(w, "%-34s %-22s %7s %8s %14s\n", "metric", "label", "subnet", "windows", "total")
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
		fmt.Fprintf(w, "%-34s %-22s %7s %8s %14.0f\n", k.metric, k.label, sub, windows, a.sum)
	}
	return nil
}

// reportEvents streams a telemetry events JSONL file and prints an
// event-type census plus the covered cycle span.
func reportEvents(w io.Writer, path string) error {
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
		fmt.Fprintln(w, "empty events file")
		return nil
	}
	if first <= last {
		fmt.Fprintf(w, "%d events over cycles %d-%d\n", total, first, last)
	} else {
		fmt.Fprintf(w, "%d events\n", total)
	}
	for _, t := range order {
		c := counts[t]
		fmt.Fprintf(w, "  %-18s %8d (%5.1f%%) %s\n", t, c, 100*float64(c)/float64(total), bar(float64(c)/float64(total)))
	}
	return nil
}

// histBounds are the latency histogram's inclusive bucket upper bounds in
// cycles; the last bucket catches everything longer.
var histBounds = [...]int64{10, 20, 40, 80, 160, 320, 640, 1280, 1 << 62}

// report is a trace's summary plus what only this command prints: the
// latency histogram and, with -series, deliveries per window. It folds
// the trace in one streaming pass, so the trace is read exactly once and
// never materialized (gzip inputs could not Seek for a second pass
// anyway).
type report struct {
	trace.Summary
	hist   [len(histBounds)]int64
	window int64
	series map[int64]int64
}

func newReport(window int64) *report {
	return &report{window: window, series: map[int64]int64{}}
}

func (r *report) observe(rec trace.Record) error {
	r.Summary.Add(rec)
	lat := rec.Latency()
	for i, b := range histBounds {
		if lat <= b {
			r.hist[i]++
			break
		}
	}
	if r.window > 0 {
		r.series[rec.Arrive/r.window]++
	}
	return nil
}

// reportTrace folds the packet trace at path into a report and prints it.
func reportTrace(w io.Writer, path string, window int64) error {
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

	r := newReport(window)
	if err := tr.Each(r.observe); err != nil {
		return err
	}
	if r.Packets == 0 {
		fmt.Fprintln(w, "empty trace")
		return nil
	}
	r.write(w)
	return nil
}

// write prints the report. Subnets, message classes (in MsgClass order:
// req, fwd, resp, ack, syn) and series windows are listed in ascending
// order, so a trace always renders the same way.
func (r *report) write(w io.Writer) {
	span := r.LastArrive - r.FirstCreate
	fmt.Fprintf(w, "packets: %d over %d cycles (%.4f packets/cycle)\n",
		r.Packets, span, float64(r.Packets)/float64(span))
	fmt.Fprintf(w, "latency: mean %.1f, max %d cycles\n", r.MeanLatency, r.MaxLatency)

	fmt.Fprintln(w, "\nper subnet:")
	for _, s := range sortedKeys(r.PerSubnet) {
		c := r.PerSubnet[s]
		fmt.Fprintf(w, "  subnet %d: %8d (%5.1f%%) %s\n", s, c,
			100*float64(c)/float64(r.Packets), bar(float64(c)/float64(r.Packets)))
	}

	fmt.Fprintln(w, "\nper message class:")
	for _, class := range sortedKeys(r.PerClass) {
		c := r.PerClass[class]
		fmt.Fprintf(w, "  %-5v %8d (%5.1f%%)\n", class, c, 100*float64(c)/float64(r.Packets))
	}

	fmt.Fprintln(w, "\nlatency histogram (cycles):")
	prev := int64(0)
	for i, b := range histBounds {
		label := fmt.Sprintf("%d-%d", prev+1, b)
		if i == len(histBounds)-1 {
			label = fmt.Sprintf(">%d", prev)
		}
		frac := float64(r.hist[i]) / float64(r.Packets)
		fmt.Fprintf(w, "  %-10s %8d (%5.1f%%) %s\n", label, r.hist[i], 100*frac, bar(frac))
		prev = b
	}

	if r.window > 0 {
		fmt.Fprintf(w, "\ndeliveries per %d-cycle window:\n", r.window)
		peak := int64(1)
		for _, v := range r.series {
			peak = max(peak, v)
		}
		for _, k := range sortedKeys(r.series) {
			fmt.Fprintf(w, "  %8d %6d %s\n", k*r.window, r.series[k], bar(float64(r.series[k])/float64(peak)))
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func bar(frac float64) string {
	n := int(float64(frac*40) + 0.5)
	return strings.Repeat("#", n)
}
