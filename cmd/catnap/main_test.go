package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	catnap "github.com/catnap-noc/catnap"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/trace"
)

// catnapRun runs one command line in process under ctx and returns its
// exit status and output.
func catnapRun(ctx context.Context, cmdline string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(ctx, strings.Fields(cmdline), &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun runs cmdline and fails the test unless it exits 0.
func mustRun(t *testing.T, cmdline string) string {
	t.Helper()
	code, stdout, stderr := catnapRun(context.Background(), cmdline)
	if code != 0 {
		t.Fatalf("catnap %s: exit %d\n%s", cmdline, code, stderr)
	}
	return stdout
}

// TestListings checks list, designs and table2 -csv against the library
// they print from.
func TestListings(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(mustRun(t, "list"), "\n"), "\n")
	exps := catnap.Experiments()
	if len(lines) != len(exps) {
		t.Fatalf("list printed %d lines for %d experiments", len(lines), len(exps))
	}
	for i, e := range exps {
		if f := strings.Fields(lines[i]); f[0] != e.Name || f[1] != e.Kind {
			t.Errorf("list line %d = %q, want %s %s ...", i, lines[i], e.Name, e.Kind)
		}
	}

	lines = strings.Split(strings.TrimSuffix(mustRun(t, "designs"), "\n"), "\n")
	designs := catnap.Designs()
	if len(lines) != len(designs) {
		t.Fatalf("designs printed %d lines for %d designs", len(lines), len(designs))
	}
	for i, d := range designs {
		if !strings.HasPrefix(lines[i], d+" ") {
			t.Errorf("designs line %d = %q, want design %s", i, lines[i], d)
		}
	}

	res, err := catnap.RunExperiment(context.Background(), "table2", catnap.ExperimentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(res.Header, ",") + "\n"
	for _, r := range res.Rows {
		want += strings.Join(r, ",") + "\n"
	}
	want += "\n" + res.Note + "\n"
	if got := mustRun(t, "table2 -csv"); got != want {
		t.Errorf("table2 -csv printed\n%s\nwant\n%s", got, want)
	}
}

// TestSweepIdenticalAcrossJobs runs a two-load sweep on one and on two
// workers: the table must be byte-identical.
func TestSweepIdenticalAcrossJobs(t *testing.T) {
	const args = "sweep -design 4NT-128b-PG -loads 0.05,0.1 -warmup 100 -measure 300"
	one := mustRun(t, args+" -jobs 1")
	if n := strings.Count(one, "\n"); n != 4 {
		t.Fatalf("sweep printed %d lines, want a comment, a header and two rows:\n%s", n, one)
	}
	if two := mustRun(t, args+" -jobs 2"); two != one {
		t.Errorf("-jobs 2 printed\n%s\n-jobs 1 printed\n%s", two, one)
	}
}

// TestHeaderReportsEffectiveEval runs a one-point campaign whose zero
// -load, -warmup and -measure select the defaults: the header must
// report the values the campaign ran with, not the flags.
func TestHeaderReportsEffectiveEval(t *testing.T) {
	out := mustRun(t, "explore -subnets 1 -widths 512 -vcdepths 4 -tidles 4 -metrics BFM -thresholds 0 -grid -load 0 -warmup 0 -measure 0 -jobs 1")
	header, table, _ := strings.Cut(out, "\n")
	if !strings.Contains(header, " load=0.1 warmup=1000 measure=4000 seed=1 ") {
		t.Fatalf("header %q, want load=0.1 warmup=1000 measure=4000 seed=1", header)
	}
	if n := strings.Count(table, "\n"); n != 2 {
		t.Errorf("one-point front printed %d table lines, want a header and one row:\n%s", n, table)
	}
}

// TestTraceReadsSweepTrace analyzes the trace a sweep wrote, plain and
// with a delivery series.
func TestTraceReadsSweepTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	mustRun(t, "sweep -design 4NT-128b-PG -loads 0.1 -warmup 100 -measure 300 -trace "+path)
	for _, args := range []string{path, "-series 100 " + path} {
		out := mustRun(t, "trace "+args)
		if !strings.HasPrefix(out, "packets: ") || !strings.Contains(out, "latency histogram") {
			t.Errorf("trace %s printed:\n%s", args, out)
		}
		if strings.HasPrefix(args, "-series") != strings.Contains(out, "deliveries per 100-cycle window") {
			t.Errorf("trace %s: series section present = %t", args, !strings.HasPrefix(args, "-series"))
		}
	}
}

// TestExitCodes checks the exit status of usage errors (2) and of
// failures (1), and that each failure names its cause.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		cmdline string
		code    int
		stderr  string
	}{
		{"", 2, "usage: catnap <command>"},
		{"-quick fig6", 2, "usage: catnap <command>"},
		{"fig6 extra", 2, "usage: catnap <command>"},
		{"sweep -bogus", 2, "flag provided but not defined: -bogus"},
		{"sweep 0.1", 2, "usage: catnap sweep"},
		{"trace", 2, "usage: catnap trace"},
		{"trace -events e.jsonl t.jsonl", 2, "usage: catnap trace"},
		{"nosuch", 1, `unknown experiment "nosuch" (valid: fig2 `},
		{"sweep -design bogus", 1, `unknown design "bogus"`},
		{"sweep -pattern wrongpat", 1, "wrongpat"},
		{"sweep -loads 0.1,0.2 -trace t.jsonl", 1, "-trace records one run's packets"},
		{"fig12 -window 5000", 1, "ExperimentOpts.Window"},
	} {
		code, stdout, stderr := catnapRun(context.Background(), c.cmdline)
		if code != c.code || !strings.Contains(stderr, c.stderr) || stdout != "" {
			t.Errorf("catnap %s: exit %d, stdout %q, stderr:\n%s\nwant exit %d naming %q", c.cmdline, code, stdout, stderr, c.code, c.stderr)
		}
	}
}

// TestErrorsPrefixedOnce: a failure names the program once, whether its
// error comes from the library, whose errors already start with
// "catnap: ", or from the command layer, whose errors do not.
func TestErrorsPrefixedOnce(t *testing.T) {
	for _, c := range []struct{ cmdline, line string }{
		{"fig12 -window 5000", "catnap: ExperimentOpts.Window = 5000, want <= fig12's 3000-cycle total\n"},
		{"sweep -design nope", `catnap: unknown design "nope" (available: [1NT-128b `},
		{"sweep -loads 0.1,0.2 -trace t.jsonl", "catnap: -trace records one run's packets"},
	} {
		code, _, stderr := catnapRun(context.Background(), c.cmdline)
		if code != 1 || !strings.HasPrefix(stderr, c.line) || strings.Contains(stderr, "catnap: catnap:") {
			t.Errorf("catnap %s: exit %d, stderr:\n%s\nwant exit 1 and stderr starting %q", c.cmdline, code, stderr, c.line)
		}
	}
}

func TestParseLoads(t *testing.T) {
	got, err := parseList("loads", "0.02, 0.5,0.10", parseLoad)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.02, 0.5, 0.10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"0", "1.5", "abc", "-0.1", "NaN", "0.1,2"} {
		if _, err := parseList("loads", bad, parseLoad); err == nil || !strings.HasPrefix(err.Error(), "-loads: ") {
			t.Errorf("parseList(loads, %q) = %v, want an error naming -loads", bad, err)
		}
	}
	// An empty list parses; the sweep rejects it before running.
	for _, empty := range []string{"", ",,"} {
		code, _, stderr := catnapRun(context.Background(), "sweep -loads="+empty)
		if code != 1 || !strings.Contains(stderr, "-loads: no loads given") {
			t.Errorf("sweep -loads=%q: exit %d, stderr %q", empty, code, stderr)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(0, 1, 0, 0); err != nil {
		t.Fatalf("smallest valid flags rejected: %v", err)
	}
	for _, c := range []struct {
		warmup, measure int64
		jobs            int
		threshold       float64
		flag            string
	}{
		{-100, 900, 0, 0, "-warmup"},
		{300, 0, 0, 0, "-measure"},
		{300, -5, 0, 0, "-measure"},
		{300, 900, -3, 0, "-jobs"},
		{300, 900, 0, -2, "-threshold"},
		{300, 900, 0, math.NaN(), "-threshold"},
		{300, 900, 0, math.Inf(1), "-threshold"},
	} {
		err := checkFlags(c.warmup, c.measure, c.jobs, c.threshold)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("checkFlags(%d, %d, %d, %g) = %v, want an error naming %s",
				c.warmup, c.measure, c.jobs, c.threshold, err, c.flag)
		}
	}
}

func TestRunRejectsNegativeSeries(t *testing.T) {
	code, _, stderr := catnapRun(context.Background(), "trace -series -5 trace.jsonl")
	if code != 1 || !strings.HasPrefix(stderr, "catnap: -series ") {
		t.Fatalf("trace -series -5: exit %d, stderr %q, want exit 1 and an error naming -series", code, stderr)
	}
}

// TestReportListsClassesInOrder renders one four-class trace's report
// repeatedly: the per-class breakdown must list the classes in MsgClass
// order every time, not in map iteration order.
func TestReportListsClassesInOrder(t *testing.T) {
	r := newReport(0)
	for i, c := range []noc.MsgClass{noc.ClassAck, noc.ClassResponse, noc.ClassForward, noc.ClassRequest} {
		for range i + 1 {
			r.observe(trace.Record{Class: c, Create: int64(i), Arrive: int64(10 * (i + 1))})
		}
	}
	for range 20 {
		var buf bytes.Buffer
		r.write(&buf)
		_, classes, ok := strings.Cut(buf.String(), "per message class:\n")
		if !ok {
			t.Fatalf("no per-class section in:\n%s", buf.String())
		}
		classes, _, _ = strings.Cut(classes, "\n\n")
		var got []string
		for _, line := range strings.Split(classes, "\n") {
			got = append(got, strings.Fields(line)[0])
		}
		if strings.Join(got, " ") != "req fwd resp ack" {
			t.Fatalf("classes listed as %v, want [req fwd resp ack]:\n%s", got, classes)
		}
	}
}

// nonEmpty fails the test unless path is a non-empty file.
func nonEmpty(t *testing.T, path string) {
	t.Helper()
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("%s not written (%v)", path, err)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	mustRun(t, "table2 -cpuprofile "+cpu+" -memprofile "+mem)
	nonEmpty(t, cpu)
	nonEmpty(t, mem)
}

// TestBadCPUProfileFailsBeforeWork gives an uncreatable -cpuprofile: the
// command must fail before it creates its telemetry file or prints
// anything.
func TestBadCPUProfileFailsBeforeWork(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "e.jsonl")
	code, stdout, stderr := catnapRun(context.Background(), "sweep -loads 0.1 -warmup 0 -measure 100 -events "+events+
		" -cpuprofile "+filepath.Join(dir, "missing", "cpu.prof"))
	if code != 1 || stdout != "" || !strings.Contains(stderr, "cpu.prof") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming the profile and no output", code, stdout, stderr)
	}
	if _, err := os.Stat(events); !os.IsNotExist(err) {
		t.Errorf("the sweep ran: %s exists (%v)", events, err)
	}
}

// TestBadMemProfileFailsAtExit gives an uncreatable -memprofile: the
// heap profile is only written at exit, so the command runs, prints its
// table, still writes the CPU profile, and then exits 1.
func TestBadMemProfileFailsAtExit(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	code, stdout, stderr := catnapRun(context.Background(), "table2 -cpuprofile "+cpu+
		" -memprofile "+filepath.Join(dir, "missing", "mem.prof"))
	if code != 1 || stdout == "" || !strings.Contains(stderr, "mem.prof") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want the table, then exit 1 naming the profile", code, stdout, stderr)
	}
	nonEmpty(t, cpu)
}

// readBack reads a run's telemetry files with the library readers, which
// fail on a torn record, and returns the number of events of each type.
func readBack(t *testing.T, metrics, events string) map[telemetry.EventType]int {
	t.Helper()
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadAllEvents(f)
	f.Close()
	if err != nil {
		t.Fatalf("reading %s: %v", events, err)
	}
	count := map[telemetry.EventType]int{}
	for _, e := range evs {
		count[e.Type]++
	}
	f, err = os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.ReadMetrics(f, func(telemetry.MetricPoint) error { return nil }); err != nil {
		t.Errorf("reading %s: %v", metrics, err)
	}
	return count
}

// TestFailedRunKeepsTelemetry gives every fig6 point a 1 ms timeout: the
// run fails with exit 1, and its telemetry files must still be complete,
// with every started point's outcome recorded. (A point shorter than
// one context poll can finish before its deadline, so a few may pass.)
func TestFailedRunKeepsTelemetry(t *testing.T) {
	dir := t.TempDir()
	metrics, events := filepath.Join(dir, "m.jsonl"), filepath.Join(dir, "e.jsonl")
	code, stdout, stderr := catnapRun(context.Background(), "fig6 -quick -jobs 2 -timeout 1ms -metrics "+metrics+" -events "+events)
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q, want exit 1 and no table\n%s", code, stdout, stderr)
	}
	n := readBack(t, metrics, events)
	if start, done, failed := n[telemetry.EventSweepStart], n[telemetry.EventSweepDone], n[telemetry.EventSweepError]; start != 16 || failed == 0 || done+failed != start {
		t.Errorf("%d sweep.start, %d sweep.done and %d sweep.error events, want fig6's 16 points each ending once, failures included",
			start, done, failed)
	}
}

// TestInterruptedSweepKeepsFiles cancels a traced sweep once trace
// records have reached the disk: the trace and the telemetry files must
// read back whole.
func TestInterruptedSweepKeepsFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl.gz")
	metrics, events := filepath.Join(dir, "m.jsonl"), filepath.Join(dir, "e.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The poller cancels the run once the trace file has grown, and
	// gives up after a minute; sawTrace is read only after polled closes.
	done, polled := make(chan struct{}), make(chan struct{})
	sawTrace := false
	go func() {
		defer close(polled)
		defer cancel()
		deadline := time.After(time.Minute)
		for {
			if st, err := os.Stat(tracePath); err == nil && st.Size() > 0 {
				sawTrace = true
				return
			}
			select {
			case <-done:
				return
			case <-deadline:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	code, _, stderr := catnapRun(ctx, "sweep -design 4NT-128b-PG -loads 0.3 -warmup 0 -measure 1000000000 -jobs 1 -trace "+tracePath+
		" -metrics "+metrics+" -events "+events)
	close(done)
	<-polled
	if !sawTrace {
		t.Fatal("no trace records reached the disk before the run ended")
	}
	if code != 1 || !strings.Contains(stderr, "context canceled") {
		t.Fatalf("exit %d, want 1 for a cancelled sweep\n%s", code, stderr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Each(func(trace.Record) error { return nil }); err != nil || tr.Count() == 0 {
		t.Errorf("reading the trace: %d records, err %v", tr.Count(), err)
	}
	n := readBack(t, metrics, events)
	if n[telemetry.EventSweepStart] != 1 || n[telemetry.EventSweepError] != 1 {
		t.Errorf("%d sweep.start and %d sweep.error events, want one of each",
			n[telemetry.EventSweepStart], n[telemetry.EventSweepError])
	}
}
