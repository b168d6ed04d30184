// Package bus is the asynchronous event transport between honeypot
// sessions and event consumers. The paper's pipeline (Figure 1) funnels
// every interaction — 18.16M brute-force logins among 24M+ events — from
// heterogeneous collectors into one queryable store; at production scale
// a synchronous Sink call per event serialises the whole farm behind the
// slowest consumer's lock. The bus decouples them:
//
//	sessions ──Record──▶ shard queues ──workers──▶ sinks (batched)
//
// Each event's source IP is hashed onto one of N shards (default
// GOMAXPROCS) with core.ShardOf, buffered in a bounded ring queue, and
// delivered by that shard's worker goroutine in batches to every
// registered sink through one core.Fanout, the same fan-out the relay
// collector delivers through. Sinks implementing core.BatchSink receive
// whole batches (one lock/flush per batch); plain core.Sinks receive the
// events one by one.
//
// Because all events from one source IP land on one shard, per-attacker
// event order is preserved end to end — the property the evstore's
// command sequences and the clustering depend on. Order across different
// sources is not defined, which is exactly the situation on a real wire.
// core.ShardOf is also how the sharded evstore partitions records, so a
// store whose shard count matches the bus's commits each delivery batch
// entirely within one store shard: N workers, N store shards, zero
// cross-shard lock contention.
//
// Backpressure is a policy choice: Block throttles producers when a
// shard queue fills (lossless collection, the simulator's choice), Drop
// sheds load uniformly and counts every shed event (a hostile flood
// must not OOM a live farm), and Adaptive sheds per source — a queue
// past its high-water mark caps each source at its first N events per
// window, so one flooding attacker is bounded while every other source
// on the shard stays lossless. Counters, a batch-size histogram,
// per-sink delivery latency and the heaviest shedding sources are
// exported through Stats for operational visibility.
package bus

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decoydb/internal/core"
)

// Policy selects what Record does when a shard queue fills up.
type Policy int

const (
	// Block makes Record wait for queue space: no event is ever lost,
	// at the cost of throttling producers to the sinks' pace.
	Block Policy = iota
	// Drop makes Record discard the event immediately and count it.
	// A flood saturates the counters, not the heap.
	Drop
	// Adaptive blocks like Block while the queue is healthy, but once
	// the queue passes Options.HighWater it sheds per source: each
	// source keeps its first Options.SourceBudget events per
	// Options.SourceWindow of event time and loses the rest, counted
	// against that source. Shedding stops once the queue drains to
	// Options.LowWater. A flooding attacker is capped at its window
	// budget; sources below the budget never lose an event.
	Adaptive
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	case "adaptive":
		return Adaptive, nil
	}
	return 0, fmt.Errorf("bus: unknown policy %q (want block, drop or adaptive)", s)
}

// Options tune a Bus. The zero value is usable: GOMAXPROCS shards,
// blocking backpressure, and default queue/batch sizes.
type Options struct {
	// Shards is the number of queues/workers. 0 means GOMAXPROCS.
	Shards int
	// QueueSize is the per-shard ring capacity. 0 means DefaultQueueSize.
	QueueSize int
	// BatchSize caps events per delivery batch. 0 means DefaultBatchSize.
	BatchSize int
	// Policy is the backpressure policy when a shard queue is full.
	Policy Policy

	// HighWater is the queue depth at which an Adaptive shard starts
	// shedding per source. 0 means 3/4 of QueueSize. A value above
	// QueueSize disables shedding entirely (pure Block behaviour).
	HighWater int
	// LowWater is the queue depth at which an Adaptive shard stops
	// shedding. 0 means 1/4 of QueueSize; values >= HighWater are
	// clamped below it.
	LowWater int
	// SourceBudget is the number of events each source keeps per
	// SourceWindow while its shard is shedding. 0 means
	// DefaultSourceBudget.
	SourceBudget int
	// SourceWindow is the per-source budget window, measured on event
	// time (core.Event.Time), so it works identically under the
	// simulator's virtual clock and a live farm's wall clock. 0 means
	// DefaultSourceWindow.
	SourceWindow time.Duration
	// MaxSources bounds the per-shard source-tracking table; the least
	// recently seen source is evicted when it fills. 0 means
	// DefaultMaxSources.
	MaxSources int
}

// Defaults for Options.
const (
	DefaultQueueSize    = 8192
	DefaultBatchSize    = 256
	DefaultSourceBudget = 256
	DefaultSourceWindow = time.Minute
	DefaultMaxSources   = 4096
)

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize <= 0 {
		o.QueueSize = DefaultQueueSize
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.BatchSize > o.QueueSize {
		o.BatchSize = o.QueueSize
	}
	if o.HighWater <= 0 {
		o.HighWater = o.QueueSize * 3 / 4
	}
	if o.HighWater < 1 {
		o.HighWater = 1
	}
	if o.LowWater <= 0 {
		o.LowWater = o.QueueSize / 4
	}
	if o.LowWater >= o.HighWater {
		o.LowWater = o.HighWater / 2
	}
	if o.SourceBudget <= 0 {
		o.SourceBudget = DefaultSourceBudget
	}
	if o.SourceWindow <= 0 {
		o.SourceWindow = DefaultSourceWindow
	}
	if o.MaxSources <= 0 {
		o.MaxSources = DefaultMaxSources
	}
	return o
}

// shard is one bounded ring queue plus the state its worker and Flush
// coordinate on.
type shard struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	drained  sync.Cond // signalled when queue empty and no batch in flight
	buf      []core.Event
	head     int
	n        int
	inflight bool // worker is delivering a popped batch
	closed   bool

	enqueued uint64
	dropped  uint64

	// Adaptive-policy state; src is nil until the shard first sheds.
	// shedEvicted keeps the shed counts of evicted src entries, so the
	// totals stay exact when attribution is lost.
	shedding    bool
	src         *core.LRU[netip.Addr, sourceState]
	shedEvicted uint64
}

func (sh *shard) init(size int) {
	sh.buf = make([]core.Event, size)
	sh.notEmpty.L = &sh.mu
	sh.notFull.L = &sh.mu
	sh.drained.L = &sh.mu
}

// HistBuckets is the number of batch-size histogram buckets: bucket i
// counts batches of size in (2^(i-1), 2^i], so bucket 0 is size 1,
// bucket 1 is size 2, bucket 2 is 3–4, ... the last bucket is open.
const HistBuckets = 10

// Bus is a sharded asynchronous fan-out from sessions to sinks. It
// implements core.Sink and core.Flusher; Close drains and stops it.
type Bus struct {
	opts   Options
	shards []*shard
	fan    *core.Fanout
	wg     sync.WaitGroup

	delivered atomic.Uint64
	hist      [HistBuckets]atomic.Uint64

	errMu    sync.Mutex
	firstErr error

	closeOnce sync.Once
}

// New starts a Bus delivering to sinks. At least one sink is required.
func New(opts Options, sinks ...core.Sink) *Bus {
	if len(sinks) == 0 {
		panic("bus: no sinks registered")
	}
	b := &Bus{opts: opts.withDefaults(), fan: core.NewFanout(sinks...)}
	b.shards = make([]*shard, b.opts.Shards)
	for i := range b.shards {
		sh := &shard{}
		sh.init(b.opts.QueueSize)
		b.shards[i] = sh
		b.wg.Add(1)
		go b.worker(sh)
	}
	return b
}

// shardFor hashes an event's source address onto a shard via
// core.ShardOf — the partitioning contract shared with the sharded
// evstore. Hashing the address (not the port) keeps all events from one
// attacker on one shard, preserving their order through delivery.
func (b *Bus) shardFor(e core.Event) *shard {
	return b.shards[core.ShardOf(e.Src.Addr(), len(b.shards))]
}

// Record implements core.Sink: it enqueues the event on its source's
// shard, applying the backpressure policy if the queue is full. Events
// recorded after Close are counted as dropped.
func (b *Bus) Record(e core.Event) {
	sh := b.shardFor(e)
	sh.mu.Lock()
	switch b.opts.Policy {
	case Block:
		for sh.n == len(sh.buf) && !sh.closed {
			sh.notFull.Wait()
		}
	case Adaptive:
		if !sh.admitAdaptive(&b.opts, e.Src.Addr(), e.Time) {
			sh.dropped++
			sh.mu.Unlock()
			return
		}
		// Admitted events are lossless, exactly like Block.
		for sh.n == len(sh.buf) && !sh.closed {
			sh.notFull.Wait()
		}
	}
	if sh.closed || sh.n == len(sh.buf) {
		sh.dropped++
		sh.mu.Unlock()
		return
	}
	sh.buf[(sh.head+sh.n)%len(sh.buf)] = e
	sh.n++
	sh.enqueued++
	sh.notEmpty.Signal()
	sh.mu.Unlock()
}

// worker drains one shard: pop up to BatchSize events, deliver to every
// sink, repeat until the shard is closed and empty.
func (b *Bus) worker(sh *shard) {
	defer b.wg.Done()
	batch := make([]core.Event, 0, b.opts.BatchSize)
	for {
		sh.mu.Lock()
		for sh.n == 0 && !sh.closed {
			sh.drained.Broadcast()
			sh.notEmpty.Wait()
		}
		if sh.n == 0 { // closed and fully drained
			sh.drained.Broadcast()
			sh.mu.Unlock()
			return
		}
		k := sh.n
		if k > b.opts.BatchSize {
			k = b.opts.BatchSize
		}
		batch = batch[:0]
		for i := 0; i < k; i++ {
			batch = append(batch, sh.buf[sh.head])
			sh.buf[sh.head] = core.Event{} // release references
			sh.head = (sh.head + 1) % len(sh.buf)
		}
		sh.n -= k
		if sh.shedding && sh.n <= b.opts.LowWater {
			sh.shedding = false
		}
		sh.inflight = true
		sh.notFull.Broadcast()
		sh.mu.Unlock()

		if _, err := b.fan.Deliver(batch, nil); err != nil {
			b.noteErr(fmt.Errorf("bus: %w", err))
		}
		b.delivered.Add(uint64(k))
		b.hist[histBucket(k)].Add(1)

		sh.mu.Lock()
		sh.inflight = false
		if sh.n == 0 {
			sh.drained.Broadcast()
		}
		sh.mu.Unlock()
	}
}

func (b *Bus) noteErr(err error) {
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.errMu.Unlock()
}

// histBucket maps a batch size to its histogram bucket (see HistBuckets).
func histBucket(n int) int {
	i := 0
	for n > 1 && i < HistBuckets-1 {
		n = (n + 1) / 2
		i++
	}
	return i
}

// Flush blocks until every event enqueued before the call has been
// delivered to all sinks. Concurrent producers may enqueue more during
// the flush; Flush returns once it observes each shard momentarily
// empty with no batch in flight.
func (b *Bus) Flush() {
	for _, sh := range b.shards {
		sh.mu.Lock()
		for sh.n > 0 || sh.inflight {
			sh.drained.Wait()
		}
		sh.mu.Unlock()
	}
}

// Close drains all queues, stops the workers, and returns the first
// sink delivery error (if any). Record after Close counts as dropped.
// Close is idempotent.
func (b *Bus) Close() error {
	b.closeOnce.Do(func() {
		for _, sh := range b.shards {
			sh.mu.Lock()
			sh.closed = true
			sh.notEmpty.Broadcast()
			sh.notFull.Broadcast()
			sh.mu.Unlock()
		}
		b.wg.Wait()
	})
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.firstErr
}

// Err returns the first sink delivery error observed so far.
func (b *Bus) Err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.firstErr
}

// Stats is a point-in-time snapshot of bus counters.
type Stats struct {
	Shards    int
	Policy    Policy
	Enqueued  uint64
	Delivered uint64
	Dropped   uint64
	Pending   uint64 // currently queued, not yet popped
	// BatchHist[i] counts delivered batches of size in (2^(i-1), 2^i]
	// (bucket 0 = single-event batches; last bucket open-ended).
	BatchHist [HistBuckets]uint64
	// Sinks lists per-sink counters in registration order.
	Sinks []core.SinkStats
	// Shedders are the heaviest per-source shed counts under the
	// Adaptive policy, descending, at most core.TopShedders entries.
	// Shards partition sources disjointly, so entries never merge.
	Shedders []core.SourceShed
	// ShedUnattributed counts adaptive sheds whose per-source entry was
	// LRU-evicted; Dropped still includes them.
	ShedUnattributed uint64
}

// Stats snapshots the counters. It is safe to call concurrently with
// Record and delivery.
func (b *Bus) Stats() Stats {
	st := Stats{
		Shards:    len(b.shards),
		Policy:    b.opts.Policy,
		Delivered: b.delivered.Load(),
	}
	for i := range st.BatchHist {
		st.BatchHist[i] = b.hist[i].Load()
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		st.Enqueued += sh.enqueued
		st.Dropped += sh.dropped
		st.Pending += uint64(sh.n)
		st.ShedUnattributed += sh.shedEvicted
		if sh.src != nil {
			for addr, s := range sh.src.All() {
				if s.shed > 0 {
					st.Shedders = append(st.Shedders, core.SourceShed{Addr: addr, Shed: s.shed})
				}
			}
		}
		sh.mu.Unlock()
	}
	st.Shedders = core.Heaviest(st.Shedders)
	st.Sinks = b.fan.Stats()
	return st
}

// MeanBatch is the mean delivered batch size.
func (s Stats) MeanBatch() float64 {
	var batches uint64
	for _, n := range s.BatchHist {
		batches += n
	}
	if batches == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(batches)
}

// String renders the snapshot as one operational log line.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bus[%d shards, %s]: enq=%d dlv=%d drop=%d pend=%d batch~%.1f",
		s.Shards, s.Policy, s.Enqueued, s.Delivered, s.Dropped, s.Pending, s.MeanBatch())
	core.WriteShed(&sb, s.Shedders, s.ShedUnattributed)
	for _, sk := range s.Sinks {
		fmt.Fprintf(&sb, " | %s: %d ev/%d batches avg=%s max=%s",
			sk.Name, sk.Events, sk.Batches,
			sk.AvgLatency().Round(time.Microsecond), sk.MaxLatency.Round(time.Microsecond))
		if sk.Errors > 0 {
			fmt.Fprintf(&sb, " errs=%d failed=%d", sk.Errors, sk.FailedEvents)
		}
	}
	return sb.String()
}
