package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/trace"
)

func TestRunRejectsNegativeSeries(t *testing.T) {
	if err := run("trace.jsonl", -5); err == nil || !strings.HasPrefix(err.Error(), "-series ") {
		t.Fatalf("run with -series -5 = %v, want an error naming -series", err)
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
