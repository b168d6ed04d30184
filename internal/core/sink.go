package core

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the event-consumer contract: everything downstream of a
// honeypot session implements one of these interfaces. The transport
// (internal/bus) and the store (internal/evstore) both build on the same
// three seams — per-event delivery (Sink), amortised batch delivery
// (BatchSink), and quiesce-point draining (Flusher) — and both tiers hand
// batches to their sinks through one Fanout.

// Sink consumes events. Implementations must be safe for concurrent use:
// honeypot sessions run on independent goroutines.
type Sink interface {
	Record(Event)
}

// BatchSink is a Sink that can accept a whole delivery batch in one
// call, amortising per-event locking. The event bus prefers this path:
// one lock acquisition and one flush per batch instead of per event.
// Implementations must not retain the batch slice after returning; the
// caller reuses it.
type BatchSink interface {
	Sink
	RecordBatch(events []Event) error
}

// TaggedBatchSink is a BatchSink that can journal an opaque provenance
// annotation alongside each batch (e.g. the relay's (farm, epoch,
// sequence) source tag into a WAL-backed store). Deliverers that know
// where a batch came from prefer this path; the tag must be persisted
// with the batch and surfaced again on replay, so crash recovery can
// rebuild delivery state — not just data.
type TaggedBatchSink interface {
	BatchSink
	RecordBatchTagged(events []Event, tag []byte) error
}

// Flusher is implemented by sinks that buffer events asynchronously
// (e.g. the event bus). Holders of such a sink call Flush at quiesce
// points — the Farm does so during Shutdown — to guarantee everything
// recorded so far has reached the final consumers.
type Flusher interface {
	Flush()
}

// Fanout hands delivery batches to a fixed list of sinks: the bus
// workers on a farm and the relay collector's connections both deliver
// through one. It learns each sink's capabilities once, when it is made,
// and keeps per-sink delivery counters. It is safe for concurrent use;
// the sinks must be too.
type Fanout struct {
	sinks []*fanSink
}

// fanSink is one sink of a Fanout with its capabilities and counters.
type fanSink struct {
	name   string
	sink   Sink
	batch  BatchSink       // nil unless the sink takes whole batches
	tagged TaggedBatchSink // nil unless it also journals a batch's tag

	batches atomic.Uint64
	events  atomic.Uint64 // events in successfully delivered batches
	failed  atomic.Uint64 // events in batches whose delivery errored
	errors  atomic.Uint64
	busyNS  atomic.Int64
	maxNS   atomic.Int64
}

// NewFanout makes a Fanout over sinks, delivering in the order given.
// Sinks are named by type; duplicates of one type get a 1-based index
// suffix ("*evstore.Store#1", "*evstore.Store#2") so their counters stay
// apart in Stats.
func NewFanout(sinks ...Sink) *Fanout {
	byType := make(map[string]int, len(sinks))
	for _, s := range sinks {
		byType[fmt.Sprintf("%T", s)]++
	}
	seen := make(map[string]int, len(byType))
	f := &Fanout{sinks: make([]*fanSink, len(sinks))}
	for i, s := range sinks {
		name := fmt.Sprintf("%T", s)
		if byType[name] > 1 {
			seen[name]++
			name = fmt.Sprintf("%s#%d", name, seen[name])
		}
		fs := &fanSink{name: name, sink: s}
		fs.batch, _ = s.(BatchSink)
		fs.tagged, _ = s.(TaggedBatchSink)
		f.sinks[i] = fs
	}
	return f
}

// Deliver hands one batch to every sink: RecordBatchTagged when tag is
// non-nil and the sink journals tags, else RecordBatch when the sink
// takes batches, else Record per event. It reports whether at least one
// sink accepted the batch — a plain sink cannot fail, so it always
// accepts — and the first error, prefixed with its sink's name. Events
// in a batch a sink rejected count as failed for that sink, not as
// delivered.
func (f *Fanout) Deliver(events []Event, tag []byte) (accepted bool, err error) {
	for _, s := range f.sinks {
		start := time.Now()
		var serr error
		switch {
		case tag != nil && s.tagged != nil:
			serr = s.tagged.RecordBatchTagged(events, tag)
		case s.batch != nil:
			serr = s.batch.RecordBatch(events)
		default:
			for _, e := range events {
				s.sink.Record(e)
			}
		}
		busy := int64(time.Since(start))
		s.batches.Add(1)
		if serr == nil {
			accepted = true
			s.events.Add(uint64(len(events)))
		} else {
			s.errors.Add(1)
			s.failed.Add(uint64(len(events)))
			if err == nil {
				err = fmt.Errorf("%s: %w", s.name, serr)
			}
		}
		s.busyNS.Add(busy)
		for {
			cur := s.maxNS.Load()
			if busy <= cur || s.maxNS.CompareAndSwap(cur, busy) {
				break
			}
		}
	}
	return accepted, err
}

// SinkStats are one sink's delivery counters in a Fanout.
type SinkStats struct {
	Name         string
	Batches      uint64
	Events       uint64 // events in successfully delivered batches
	FailedEvents uint64 // events in batches whose delivery errored
	Errors       uint64
	Latency      time.Duration // cumulative time spent delivering
	MaxLatency   time.Duration // slowest single delivery
}

// AvgLatency is the mean per-batch delivery latency.
func (s SinkStats) AvgLatency() time.Duration {
	if s.Batches == 0 {
		return 0
	}
	return s.Latency / time.Duration(s.Batches)
}

// Stats snapshots each sink's counters, in delivery order.
func (f *Fanout) Stats() []SinkStats {
	out := make([]SinkStats, len(f.sinks))
	for i, s := range f.sinks {
		out[i] = SinkStats{
			Name:         s.name,
			Batches:      s.batches.Load(),
			Events:       s.events.Load(),
			FailedEvents: s.failed.Load(),
			Errors:       s.errors.Load(),
			Latency:      time.Duration(s.busyNS.Load()),
			MaxLatency:   time.Duration(s.maxNS.Load()),
		}
	}
	return out
}

// ShardOf maps a source address onto one of n shards with an FNV-1a
// hash over the 16 address bytes. It is the partitioning contract shared
// by the event bus and the sharded event store: both split work by
// source IP with this exact function, so when their shard counts match,
// every batch a bus worker delivers lands wholly inside one store shard
// and batch commits never contend across shards. Hashing the address
// (not the port) keeps all events from one attacker in one partition,
// preserving per-attacker event order end to end.
func ShardOf(addr netip.Addr, n int) int {
	if n <= 1 {
		return 0
	}
	a := addr.As16()
	h := uint64(14695981039346656037)
	for _, c := range a {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Record implements Sink.
func (f SinkFunc) Record(e Event) { f(e) }

// NopSink discards all events.
var NopSink Sink = SinkFunc(func(Event) {})

// MemSink accumulates events in memory, guarded by a mutex. It is intended
// for tests and small live deployments; large runs should stream into an
// evstore.Store instead.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Record implements Sink.
func (m *MemSink) Record(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (m *MemSink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Len reports the number of recorded events.
func (m *MemSink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Reset discards all recorded events.
func (m *MemSink) Reset() {
	m.mu.Lock()
	m.events = nil
	m.mu.Unlock()
}
