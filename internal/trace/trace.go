// Package trace records per-packet delivery records from a simulation as
// JSON Lines, and reads them back for offline analysis. A trace row
// carries everything the evaluation's figures are computed from, so a
// saved trace can regenerate latency distributions and subnet shares
// without re-running the simulator.
//
// Writers take functional options (buffer size, gzip compression);
// readers stream record-by-record via Reader.Each and transparently
// decompress gzip input by sniffing its magic bytes.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"github.com/catnap-noc/catnap/internal/noc"
)

// Record is one delivered packet.
type Record struct {
	ID       uint64       `json:"id"`
	Src      int          `json:"src"`
	Dst      int          `json:"dst"`
	Class    noc.MsgClass `json:"class"`
	SizeBits int          `json:"bits"`
	Flits    int          `json:"flits"`
	Subnet   int          `json:"subnet"`
	Create   int64        `json:"create"`
	Inject   int64        `json:"inject"`
	Arrive   int64        `json:"arrive"`
}

// Latency returns the end-to-end latency in cycles.
func (r *Record) Latency() int64 { return r.Arrive - r.Create }

// NetworkLatency returns the in-network latency in cycles.
func (r *Record) NetworkLatency() int64 { return r.Arrive - r.Inject }

// Option configures a Writer.
type Option func(*writerConfig)

type writerConfig struct {
	bufSize int
	gzip    bool
}

// WithBufferSize sets the internal buffer size in bytes (default 64 KiB).
func WithBufferSize(n int) Option {
	return func(c *writerConfig) {
		if n > 0 {
			c.bufSize = n
		}
	}
}

// WithGzip compresses the stream with gzip. Readers built by NewReader
// detect the compression automatically.
func WithGzip() Option {
	return func(c *writerConfig) { c.gzip = true }
}

// Writer streams records to an io.Writer as JSON Lines, optionally
// gzip-compressed. It buffers internally; call Flush (or Close if the
// underlying writer is a Closer) when done.
type Writer struct {
	bw  *bufio.Writer
	gz  *gzip.Writer
	enc *json.Encoder
	n   int64
	c   io.Closer
}

// NewWriter wraps w. If w is also an io.Closer, Close will close it.
// The encoding pipeline is json → bufio → (gzip) → w, so small records
// batch up before hitting the compressor or the file.
func NewWriter(w io.Writer, opts ...Option) *Writer {
	cfg := writerConfig{bufSize: 1 << 16}
	for _, o := range opts {
		o(&cfg)
	}
	tw := &Writer{}
	if c, ok := w.(io.Closer); ok {
		tw.c = c
	}
	out := w
	if cfg.gzip {
		tw.gz = gzip.NewWriter(w)
		out = tw.gz
	}
	tw.bw = bufio.NewWriterSize(out, cfg.bufSize)
	tw.enc = json.NewEncoder(tw.bw)
	return tw
}

// Sink returns a delivery callback for Network.AddSink that records every
// delivered packet.
func (w *Writer) Sink() func(now int64, p *noc.Packet) {
	return func(now int64, p *noc.Packet) {
		w.Write(p)
	}
}

// Write appends one packet's record.
func (w *Writer) Write(p *noc.Packet) {
	rec := Record{
		ID: p.ID, Src: p.Src, Dst: p.Dst,
		Class: p.Class, SizeBits: p.SizeBits, Flits: p.NumFlits, Subnet: p.Subnet,
		Create: p.CreateTime, Inject: p.InjectTime, Arrive: p.ArriveTime,
	}
	// bufio absorbs errors until Flush; Encode on a bufio.Writer cannot
	// fail for marshalable fixed-shape structs.
	_ = w.enc.Encode(&rec)
	w.n++
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush drains the internal buffer (and, when compressing, emits a gzip
// sync block so everything written so far is decodable).
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.gz != nil {
		return w.gz.Flush()
	}
	return nil
}

// Close flushes, finalizes the compression stream, and, when the
// underlying writer is a Closer, closes it.
func (w *Writer) Close() error {
	err := w.bw.Flush()
	if w.gz != nil {
		if e := w.gz.Close(); err == nil {
			err = e
		}
	}
	if w.c != nil {
		if e := w.c.Close(); err == nil {
			err = e
		}
	}
	return err
}

// Reader streams records from a JSONL trace, plain or gzipped. Build
// one with NewReader; iterate with Each.
type Reader struct {
	gz  *gzip.Reader
	dec *json.Decoder
	n   int64
}

// gzipMagic is the two-byte gzip file signature.
var gzipMagic = []byte{0x1f, 0x8b}

// NewReader wraps r, sniffing the first bytes for the gzip signature
// and transparently decompressing when present.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		return &Reader{gz: gz, dec: json.NewDecoder(gz)}, nil
	}
	// Peek errors (e.g. an empty file) surface as a clean EOF from Each.
	return &Reader{dec: json.NewDecoder(br)}, nil
}

// Next decodes one record. It returns io.EOF at end of stream.
func (r *Reader) Next() (Record, error) {
	var rec Record
	if err := r.dec.Decode(&rec); err == io.EOF {
		return rec, io.EOF
	} else if err != nil {
		return rec, fmt.Errorf("trace: record %d: %w", r.n, err)
	}
	r.n++
	return rec, nil
}

// Each streams the remaining records, calling fn for each in order; it
// stops early if fn returns an error.
func (r *Reader) Each(fn func(Record) error) error {
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Count returns how many records have been decoded so far.
func (r *Reader) Count() int64 { return r.n }

// Close releases the decompressor, when one is in use. It does not
// close the underlying reader.
func (r *Reader) Close() error {
	if r.gz != nil {
		return r.gz.Close()
	}
	return nil
}

// Summary aggregates a trace the way the figures do.
type Summary struct {
	Packets     int64
	MeanLatency float64
	MaxLatency  int64
	// PerSubnet counts packets per subnet index (index -1, never
	// injected, is dropped).
	PerSubnet map[int]int64
	// PerClass counts packets per message class.
	PerClass map[noc.MsgClass]int64
	// FirstCreate/LastArrive bound the traced interval.
	FirstCreate int64
	LastArrive  int64
}

// observe folds one record into the summary (latSum accumulates for the
// mean; call finish once done).
func (s *Summary) observe(rec Record, latSum *int64) {
	s.Packets++
	lat := rec.Latency()
	*latSum += lat
	if lat > s.MaxLatency {
		s.MaxLatency = lat
	}
	s.PerSubnet[rec.Subnet]++
	s.PerClass[rec.Class]++
	if rec.Create < s.FirstCreate {
		s.FirstCreate = rec.Create
	}
	if rec.Arrive > s.LastArrive {
		s.LastArrive = rec.Arrive
	}
}

func (s *Summary) finish(latSum int64) {
	if s.Packets > 0 {
		s.MeanLatency = float64(latSum) / float64(s.Packets)
	} else {
		s.FirstCreate = 0
	}
}

func newSummary() Summary {
	return Summary{PerSubnet: map[int]int64{}, PerClass: map[noc.MsgClass]int64{}, FirstCreate: 1<<63 - 1}
}

// Summarize scans a trace, plain or gzipped, into a Summary.
func Summarize(r io.Reader) (Summary, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Summary{}, err
	}
	defer tr.Close()
	s := newSummary()
	var latSum int64
	err = tr.Each(func(rec Record) error {
		s.observe(rec, &latSum)
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	s.finish(latSum)
	return s, nil
}
