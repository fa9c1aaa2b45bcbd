// Package telemetry is the simulator's cycle-level observability layer:
// a metrics registry of counters and windowed series, plus a structured
// event log for discrete state transitions (router sleep/wake, congestion
// on/off, sweep-point lifecycle).
//
// Telemetry is strictly opt-in and free when off. The collector attaches
// through three existing hooks — noc.CycleObserver, noc.PowerTracer and
// congestion.Tracer — all of which default to nil/empty; a simulation
// that never attaches a Recorder executes exactly the same instructions
// it did before this package existed (the only residue is a nil pointer
// compare at each power transition). TestTelemetryOffIdentical and the
// bench-telemetry guard pin that property.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventType names one kind of structured event. The values are stable
// strings (they appear in JSONL output), not enum ordinals.
type EventType string

// Event types. Congestion on/off pairs are separate types rather than a
// boolean field so a stream can be filtered with a plain string match.
const (
	// EventRouterSleep records a router power-gating off after the
	// idle-detect window elapsed.
	EventRouterSleep EventType = "router.sleep"
	// EventRouterWake records a router beginning its wake-up sequence;
	// Cause distinguishes look-ahead, NI and policy wakeups.
	EventRouterWake EventType = "router.wake"
	// EventCongestionOn / EventCongestionOff record a node's local
	// congestion status (LCS) latching on or off.
	EventCongestionOn  EventType = "congestion.on"
	EventCongestionOff EventType = "congestion.off"
	// EventRCSOn / EventRCSOff record a region's remote congestion
	// status toggling as the OR-network latches each window.
	EventRCSOn  EventType = "rcs.on"
	EventRCSOff EventType = "rcs.off"
	// EventSweepStart / EventSweepDone / EventSweepError record sweep-
	// point lifecycle from the runner; Cycle, Subnet and Node are -1.
	EventSweepStart EventType = "sweep.start"
	EventSweepDone  EventType = "sweep.done"
	EventSweepError EventType = "sweep.error"
)

// Event is one structured telemetry record. Fields that do not apply to
// a given type hold -1 (ints) or are omitted (strings/optionals), so
// every event round-trips through JSON without loss.
type Event struct {
	// Cycle is the simulation cycle the transition happened on, or -1
	// for sweep lifecycle events (which live in wall-clock, not
	// simulated, time).
	Cycle int64 `json:"cycle"`
	// Type discriminates the record.
	Type EventType `json:"type"`
	// Subnet is the subnetwork index, or -1 when not applicable.
	Subnet int `json:"subnet"`
	// Node is the router/NI node for router.* and congestion.* events,
	// the OR-network region index for rcs.* events, and -1 otherwise.
	Node int `json:"node"`
	// Cause explains router.wake ("look-ahead", "ni", "policy") and
	// router.sleep ("idle-detect") events.
	Cause string `json:"cause,omitempty"`
	// Idle is the idle-detect cycle count that preceded a router.sleep.
	Idle int64 `json:"idle,omitempty"`
	// Slept is the length of the sleep period a router.wake ends.
	Slept int64 `json:"slept,omitempty"`
	// Point labels sweep.* events with the sweep point's name.
	Point string `json:"point,omitempty"`
	// Cycles is the simulated-cycle count of a finished sweep point.
	Cycles int64 `json:"cycles,omitempty"`
	// Err carries the error text of a sweep.error event.
	Err string `json:"err,omitempty"`
}

// Log is a bounded in-memory event ring with an optional streaming JSONL
// sink. The ring keeps the most recent Cap events (older ones are
// dropped and counted); the sink, when set, receives every event in
// order regardless of ring capacity. Log is safe for concurrent use —
// a Recorder shares one log across every simulation of a sweep, and
// those run on different sweep workers.
type Log struct {
	mu      sync.Mutex
	ring    []Event
	next    int   // ring write position
	full    bool  // ring has wrapped
	total   int64 // events ever appended
	dropped int64 // events evicted from the ring
	counts  map[EventType]int64

	sink    *bufio.Writer
	enc     *json.Encoder
	sinkErr error
}

// NewLog returns a log keeping the last capacity events in memory (a
// non-positive capacity defaults to 4096). If sink is non-nil every
// event is also encoded to it as one JSON object per line; call Flush
// before reading the sink's destination.
func NewLog(capacity int, sink io.Writer) *Log {
	if capacity <= 0 {
		capacity = 4096
	}
	l := &Log{
		ring:   make([]Event, capacity),
		counts: make(map[EventType]int64),
	}
	if sink != nil {
		l.sink = bufio.NewWriter(sink)
		l.enc = json.NewEncoder(l.sink)
	}
	return l
}

// Append records one event.
//
//catnap:hotpath fires only on power/congestion transitions, never per flit
func (l *Log) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.counts[e.Type]++
	if l.full {
		l.dropped++
	}
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	if l.enc != nil && l.sinkErr == nil {
		//lint:ignore hotpathalloc JSON streaming is opt-in via WithSink; runs that care about allocation leave the sink nil
		l.sinkErr = l.enc.Encode(e)
	}
}

// Events returns the retained events in append order (oldest first).
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]Event, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Total returns how many events were ever appended.
func (l *Log) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped returns how many events fell out of the bounded ring. They
// are still in the sink, if one was configured.
func (l *Log) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Count returns how many events of type t were appended.
func (l *Log) Count(t EventType) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[t]
}

// Flush drains the sink's buffer and reports the first error the sink
// ever returned. A log without a sink always returns nil.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		return l.sinkErr
	}
	if err := l.sink.Flush(); err != nil && l.sinkErr == nil {
		l.sinkErr = err
	}
	return l.sinkErr
}

// WriteEvents encodes events as JSONL to w (one object per line), in
// order. Use it to dump a ring snapshot when no streaming sink was
// configured.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEvents streams a JSONL event log, calling fn for each record in
// order. It stops at the first decode error or the first error fn
// returns.
func ReadEvents(r io.Reader, fn func(Event) error) error {
	dec := json.NewDecoder(r)
	for i := 0; ; i++ {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("telemetry: event %d: %w", i, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// ReadAllEvents reads a whole JSONL event log into memory.
func ReadAllEvents(r io.Reader) ([]Event, error) {
	var out []Event
	err := ReadEvents(r, func(e Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}
