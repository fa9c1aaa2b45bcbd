package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/trace"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// summarize folds a trace, plain or gzipped, into a Summary the way
// catnap trace does: NewReader, then Summary.Add on every record Each
// yields.
func summarize(t *testing.T, r io.Reader) trace.Summary {
	t.Helper()
	tr, err := trace.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var s trace.Summary
	if err := tr.Each(func(rec trace.Record) error { s.Add(rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	p := &noc.Packet{
		ID: 7, Src: 1, Dst: 2, Class: noc.ClassResponse, SizeBits: 584,
		NumFlits: 5, Subnet: 3, CreateTime: 10, InjectTime: 12, ArriveTime: 40,
	}
	w.Write(p)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Record
	if err := tr.Each(func(r trace.Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records", len(got))
	}
	r := got[0]
	if r.ID != 7 || r.Subnet != 3 || r.Latency() != 30 || r.Inject != 12 {
		t.Fatalf("record mismatch: %+v", r)
	}
}

// TestReadRejectsGarbage feeds a malformed line after a valid record:
// Each must deliver the valid record, then fail on the garbage.
func TestReadRejectsGarbage(t *testing.T) {
	tr, err := trace.NewReader(strings.NewReader("{\"id\":1}\nnot json\n"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = tr.Each(func(trace.Record) error { n++; return nil })
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if n != 1 || tr.Count() != 1 {
		t.Fatalf("delivered %d records (Count %d) before the garbage, want 1", n, tr.Count())
	}
}

// TestLiveTraceAndSummary traces a real simulation and checks the
// summary matches the network's own counters.
func TestLiveTraceAndSummary(t *testing.T) {
	cfg := noc.Config{
		Rows: 4, Cols: 4, TilesPerNode: 4, RegionDim: 2,
		Subnets: 2, LinkWidthBits: 256,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
	}
	net, err := noc.New(cfg, core.NewRRSelector(cfg.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	net.AddSink(w.Sink())

	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, traffic.Constant(0.1), 3)
	for i := 0; i < 2000; i++ {
		gen.Tick(net.Now())
		net.Step()
	}
	net.Drain(100000)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	_, _, ejected := net.Counts()
	if w.Count() != ejected {
		t.Fatalf("traced %d, network delivered %d", w.Count(), ejected)
	}
	sum := summarize(t, bytes.NewReader(buf.Bytes()))
	if sum.Packets != ejected {
		t.Fatalf("summary packets %d != %d", sum.Packets, ejected)
	}
	if sum.MeanLatency <= 0 || sum.MaxLatency < int64(sum.MeanLatency) {
		t.Fatalf("implausible latency summary: %+v", sum)
	}
	if sum.PerSubnet[0]+sum.PerSubnet[1] != ejected {
		t.Fatalf("subnet counts don't add up: %v", sum.PerSubnet)
	}
	if sum.LastArrive <= sum.FirstCreate {
		t.Fatalf("interval inverted: %d..%d", sum.FirstCreate, sum.LastArrive)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := summarize(t, strings.NewReader(""))
	if sum.Packets != 0 || sum.MeanLatency != 0 || sum.FirstCreate != 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
}

// TestGzipRoundTrip writes about 108 KB of JSON, more than the writer's
// 64 KiB buffer holds, so the gzip stream spans a buffer flush.
func TestGzipRoundTrip(t *testing.T) {
	const n = 1000
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.WithGzip())
	want := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		p := &noc.Packet{
			ID: uint64(i), Src: i % 16, Dst: (i * 7) % 16,
			SizeBits: 512, NumFlits: 4, Subnet: i % 4,
			CreateTime: int64(i), InjectTime: int64(i + 2), ArriveTime: int64(i + 20),
		}
		w.Write(p)
		want = append(want, trace.Record{
			ID: p.ID, Src: p.Src, Dst: p.Dst, Class: p.Class,
			SizeBits: p.SizeBits, Flits: p.NumFlits, Subnet: p.Subnet,
			Create: p.CreateTime, Inject: p.InjectTime, Arrive: p.ArriveTime,
		})
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if buf.Len() < 2 || buf.Bytes()[0] != 0x1f || buf.Bytes()[1] != 0x8b {
		t.Fatal("output is not gzip-framed")
	}

	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace.NewReader: %v", err)
	}
	defer r.Close()
	var got []trace.Record
	if err := r.Each(func(rec trace.Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatalf("Each: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gzip round-trip mismatch: got %d records", len(got))
	}
	if r.Count() != n {
		t.Errorf("reader count = %d, want %d", r.Count(), n)
	}
}

func TestReaderPlainAutodetect(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.Write(&noc.Packet{ID: 1, SizeBits: 128, NumFlits: 1, ArriveTime: 9})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := r.Each(func(trace.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("read %d records, want 1", n)
	}
}

func TestReaderEmptyInput(t *testing.T) {
	r, err := trace.NewReader(bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("trace.NewReader on empty input: %v", err)
	}
	if err := r.Each(func(trace.Record) error { t.Fatal("unexpected record"); return nil }); err != nil {
		t.Errorf("Each on empty input: %v", err)
	}
}

// TestReaderTruncatedGzip cuts a gzipped trace off mid-stream and checks
// the reader reports the corruption instead of silently returning the
// prefix as a complete trace — a truncated campaign artifact (killed
// run, full disk) must not summarize as a shorter-but-valid one.
func TestReaderTruncatedGzip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.WithGzip())
	for i := 0; i < 200; i++ {
		w.Write(&noc.Packet{ID: uint64(i), SizeBits: 512, NumFlits: 4,
			CreateTime: int64(i), ArriveTime: int64(i + 20)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Cut inside the deflate body (and its trailing CRC): NewReader still
	// sees a valid header, so the damage must surface from Each.
	for _, cut := range []int{len(whole) / 2, len(whole) - 1} {
		r, err := trace.NewReader(bytes.NewReader(whole[:cut]))
		if err != nil {
			t.Fatalf("NewReader on body truncated at %d/%d: %v", cut, len(whole), err)
		}
		err = r.Each(func(trace.Record) error { return nil })
		if err == nil {
			t.Errorf("truncation at %d/%d bytes read as a clean EOF", cut, len(whole))
		}
		r.Close()
	}

	// Cut inside the gzip header: the magic bytes survive, so the reader
	// commits to gzip and must fail constructing the decompressor.
	if _, err := trace.NewReader(bytes.NewReader(whole[:4])); err == nil {
		t.Error("truncated gzip header accepted by NewReader")
	}
}

func TestSummarizeGzip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.WithGzip())
	for i := 0; i < 10; i++ {
		w.Write(&noc.Packet{ID: uint64(i), Subnet: i % 2, SizeBits: 64, NumFlits: 1,
			CreateTime: int64(i), ArriveTime: int64(i + 10)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := summarize(t, &buf)
	if s.Packets != 10 || s.MeanLatency != 10 || s.PerSubnet[0] != 5 {
		t.Errorf("summary = %+v", s)
	}
}

// FuzzTraceReader feeds arbitrary bytes, plain or gzipped, through
// NewReader and Each: neither may panic, and Each must yield exactly the
// records Count reports decoded. Seeds in testdata/fuzz/FuzzTraceReader
// cover a valid record, a torn record, empty input, a gzip stream of two
// records, and that stream cut in half.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return // a torn gzip header is refused, not read
		}
		defer r.Close()
		var n int64
		_ = r.Each(func(trace.Record) error { n++; return nil })
		if n != r.Count() {
			t.Fatalf("Each yielded %d records, Count() = %d", n, r.Count())
		}
	})
}
