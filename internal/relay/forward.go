package relay

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wal"
	"decoydb/internal/wire"
)

// ForwardOptions configure a ForwardSink. Addrs and Token are required.
type ForwardOptions struct {
	// Addrs are the collector endpoints. The sink ranks them by
	// rendezvous hash of the farm name (RankEndpoints) and forwards to
	// the first-ranked collector, failing over down the list when the
	// connection dies and failing back when a higher-ranked collector
	// returns. A single-element slice behaves exactly like the old
	// single-collector forwarder.
	Addrs []string
	// Token is the shared secret presented in the HELLO frame.
	Token string
	// Farm names this forwarder in the collector's dedup and stats
	// tables, and keys the rendezvous ranking over Addrs. Defaults to
	// "farm". Two live farms must use distinct names or their sequence
	// spaces collide.
	Farm string

	// Block, when set, makes RecordBatch wait for spool space instead of
	// shedding — the lossless choice for forwarding a finite capture
	// (cmd/dbsim). A live farm leaves it unset: a collector outage must
	// cost bounded memory, not stalled honeypot sessions.
	Block bool

	// FrameEvents is the target events per frame; pending events are cut
	// into a frame when they reach it (or earlier, whenever the writer is
	// idle). 0 means DefaultFrameEvents; values above DefaultMaxBatchEvents
	// are clamped — a default-configured collector rejects larger frames.
	FrameEvents int
	// MaxFrame and MaxRaw are the wire limits frames are validated
	// against at encode time; they must be no larger than the
	// collector's MaxFrame / Limits.MaxRaw or the collector will reject
	// the frames. A batch that encodes past either bound is split in
	// half until it fits; a single event that cannot fit alone is shed
	// with attribution. Zero values mean the package defaults.
	MaxFrame int
	MaxRaw   int
	// MaxFrameRetries drops a spooled frame after it has been written on
	// this many connections without ever being acked — the signature of
	// a frame the collector rejects at decode (limits skew between the
	// two ends). The drop is counted in Stats (DroppedFrames, and the
	// events as Shed) and surfaces via Err. 0 means
	// DefaultMaxFrameRetries.
	MaxFrameRetries int
	// SpoolBytes caps the memory held by encoded frames buffered while
	// unacked: their wire bytes plus spoolFrameOverhead per frame, so
	// the one bound holds even when frames carry a single event. 0 means
	// DefaultSpoolBytes.
	SpoolBytes int64

	// SpoolWAL, when non-nil, backs the retransmission spool with a
	// durable log (in practice a *wal.Log, which satisfies SpoolLog):
	// every cut frame is journaled before it is spooled, frame ownership
	// is journaled when a frame is first written to an endpoint,
	// collector acks are persisted as marks (and compact the log), and a
	// restarted forwarder reloads every unacked frame — with its pinned
	// endpoint address — from disk and resumes retransmission under a
	// fresh epoch, so a farm crash costs nothing that was already framed
	// and never replays a frame to a collector other than its owner.
	// Frame sequence numbers are the WAL's sequence numbers, which
	// survive restarts; the HELLO advertises this (durable flag) so the
	// collector dedups on sequence across epochs. The log must be
	// exclusively owned by this sink while it is open (its sequence
	// space is the frame sequence space); the caller retains ownership
	// for Close. Assign only a non-nil concrete value: a nil *wal.Log
	// stored in the interface reads as a present (and broken) log.
	SpoolWAL SpoolLog

	// OrphanRelease, when positive, is how long a spooled frame may stay
	// pinned to an endpoint that is absent from the current endpoint set
	// before the pin is released and the frame becomes eligible for any
	// collector. Zero (the default) never releases: an orphaned frame
	// waits for its owner to reappear (SetEndpoints, or a restart with
	// the owner back in Addrs). Releasing trades the exactly-once
	// guarantee for drain progress — the departed collector may already
	// hold the events — so it is opt-in, for tiers where removed
	// collectors are gone for good and their stores are discarded.
	OrphanRelease time.Duration

	// CompressionLevel is the compress/flate level for batch payloads.
	// 0 means flate.BestSpeed.
	CompressionLevel int

	// DialTimeout, WriteTimeout and FlushTimeout bound connection
	// attempts, single frame writes, and Flush respectively. Zero values
	// take the package defaults.
	DialTimeout  time.Duration
	WriteTimeout time.Duration
	FlushTimeout time.Duration
	// MinBackoff/MaxBackoff bound the jittered exponential reconnect
	// backoff, kept per endpoint. A connection's endpoint resets to
	// MinBackoff only after the first acked frame on that connection —
	// a collector that accepts TCP but never acks (auth skew, a
	// half-dead process) keeps backing off instead of being hammered at
	// the floor interval. Zero values take the package defaults.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// FailbackInterval is how often a connected sink probes for a
	// better endpoint: the owner of the oldest pinned frame first (so
	// spooled frames drain when their collector returns), else the
	// highest-ranked collector. A successful probe hands the new
	// connection over without dropping events; a failed probe costs one
	// dial and leaves the current connection alone. 0 means
	// DefaultFailbackInterval; it only matters with multiple Addrs.
	FailbackInterval time.Duration

	// Logf, when non-nil, receives operational diagnostics (reconnects,
	// write failures, failovers).
	Logf func(format string, args ...any)
}

// Defaults for ForwardOptions.
const (
	DefaultFrameEvents      = 512
	DefaultSpoolBytes       = 64 << 20
	DefaultDialTimeout      = 5 * time.Second
	DefaultWriteTimeout     = 10 * time.Second
	DefaultFlushTimeout     = 5 * time.Second
	DefaultMinBackoff       = 100 * time.Millisecond
	DefaultMaxBackoff       = 5 * time.Second
	DefaultFailbackInterval = 15 * time.Second
	DefaultMaxFrameRetries  = 8
)

// DefaultMaxShedSources bounds the per-source shed-attribution table.
// Like the bus's adaptive tables it is an LRU: it keeps the sources
// shedding now, and the counts of evicted sources move to
// Stats.ShedUnattributed, so totals stay exact.
const DefaultMaxShedSources = 4096

// spoolFrameOverhead is the memory a spooled frame costs beyond its
// wire bytes (the spoolFrame record and its slot in the spool),
// charged against Options.SpoolBytes.
const spoolFrameOverhead = 128

func (o ForwardOptions) withDefaults() ForwardOptions {
	if o.Farm == "" {
		o.Farm = "farm"
	}
	if o.FrameEvents <= 0 {
		o.FrameEvents = DefaultFrameEvents
	}
	if o.FrameEvents > DefaultMaxBatchEvents {
		o.FrameEvents = DefaultMaxBatchEvents
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxRaw <= 0 {
		o.MaxRaw = DefaultMaxRaw
	}
	if o.MaxFrameRetries <= 0 {
		o.MaxFrameRetries = DefaultMaxFrameRetries
	}
	if o.SpoolBytes <= 0 {
		o.SpoolBytes = DefaultSpoolBytes
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	if o.FlushTimeout <= 0 {
		o.FlushTimeout = DefaultFlushTimeout
	}
	if o.MinBackoff <= 0 {
		o.MinBackoff = DefaultMinBackoff
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = o.MinBackoff
	}
	if o.FailbackInterval <= 0 {
		o.FailbackInterval = DefaultFailbackInterval
	}
	return o
}

// SpoolLog is the durable-spool contract the forwarder journals
// through. *wal.Log satisfies it; the indirection exists so tests can
// inject journal faults (a Compact that fails once, an Append that
// skews) without a real disk misbehaving on cue.
type SpoolLog interface {
	// Append journals a batch and returns its sequence number.
	Append(events []core.Event, tag []byte) (uint64, error)
	// AppendOwner journals which endpoint the batch with sequence seq is
	// pinned to; an empty addr releases the pin.
	AppendOwner(seq uint64, addr string) error
	// Owners returns the surviving pins (seq → endpoint addr) above the
	// consumer mark.
	Owners() map[uint64]string
	// Replay streams every batch with sequence >= from, in log order.
	Replay(from uint64, fn func(seq uint64, tag []byte, events []core.Event) error) error
	// Compact persists seq as the consumer mark and reclaims storage.
	Compact(seq uint64) (removed int, err error)
	// Mark returns the highest persisted consumer mark.
	Mark() uint64
	// LastSeq returns the highest journaled batch sequence.
	LastSeq() uint64
}

var _ SpoolLog = (*wal.Log)(nil)

// spoolFrame is one encoded, unacked batch. attempts counts the
// connections the frame has been written on as the first frame of the
// connection without being acked — a frame the collector rejects at
// decode always leads the retransmission, whereas frames merely queued
// behind it must not accrue blame. Past Options.MaxFrameRetries such a
// frame is presumed collector-rejected and dropped.
//
// owner pins the frame to the address of the endpoint it was first
// written to (empty until then). Retransmits only ever go to the owner:
// after a failover the new collector never sees frames the old one may
// have ingested without the ack reaching us, so an event is ingested by
// exactly one collector and the tier-wide merge stays exactly-once.
// Pinned frames drain when their collector returns (the failback probe
// seeks the oldest pinned frame's owner); the owner's own
// journal-restored dedup absorbs the re-send of anything it had already
// ingested. Ownership is keyed by address, not endpoint index, so it
// survives both a SetEndpoints re-rank and — journaled in the spool WAL
// — a farm restart. A frame whose owner is absent from the current
// endpoint set is an orphan: it is never retransmitted elsewhere unless
// Options.OrphanRelease fires.
type spoolFrame struct {
	seq      uint64
	events   int
	body     []byte
	attempts int
	owner    string    // endpoint address the frame is pinned to; "" = unowned
	pinnedAt time.Time // when owner was set; orphan-release clock
	sentAt   time.Time // last successful write; zero until first send
}

// endpoint is the per-collector dial state and accounting, in
// rendezvous rank order for this farm.
type endpoint struct {
	addr    string
	backoff time.Duration // next failure sleep; MinBackoff after an acked connection
	due     time.Time     // earliest next dial; zero = immediately

	dials       uint64
	dialErrors  uint64
	framesAcked uint64
	eventsAcked uint64
}

// ForwardSink streams events to a tier of relay collectors. It
// implements core.Sink, core.BatchSink and core.Flusher, so it registers
// on the event bus like any local sink; batches arrive on bus worker
// goroutines, are encoded into frames and spooled, and a background pump
// goroutine owns the TCP connection: rank the endpoints by rendezvous
// hash, dial the best one due, HELLO, write frames with a deadline, read
// cumulative ACKs, and on failure fail over to the next-ranked collector
// while the dead one backs off — retransmitting everything unacked,
// except that frames already written to one collector stay pinned to it
// (see spoolFrame.owner).
//
// When the spool hits its byte bound (collector down, or slower than
// the farm), new events are shed with per-source accounting — the
// same degrade-don't-stall contract as the bus's Adaptive policy — so
// Stats always satisfies: events enqueued = acked + in flight (spool +
// pending) and events offered = enqueued + shed.
type ForwardSink struct {
	opts ForwardOptions
	eps  []*endpoint // rendezvous rank order for opts.Farm

	mu   sync.Mutex
	cond sync.Cond // new data, acks, disconnects, stop

	pending []core.Event  // not yet framed
	spool   []*spoolFrame // framed, FIFO by seq
	scanIdx int           // next spool index the current connection considers
	spoolEv int
	spoolB  int64
	nextSeq uint64
	epoch   uint64 // per-process session nonce, sent in HELLO

	conn       net.Conn
	connected  bool
	connAcked  bool      // current connection has acked at least one frame
	cur        *endpoint // endpoint being served; nil when disconnected
	lastServed *endpoint // endpoint of the previous connection; nil before any
	handoff    net.Conn
	handoffEp  *endpoint
	stopped    bool
	stopCh     chan struct{}
	wg         sync.WaitGroup

	firstErr error

	// Counters (guarded by mu).
	enqueued    uint64
	frames      uint64
	framesSent  uint64
	framesAcked uint64
	eventsAcked uint64
	wireBytes   uint64
	rawBytes    uint64
	dials       uint64
	dialErrors  uint64
	reconnects  uint64
	failovers   uint64
	writeErrors uint64
	shed        uint64
	shedUnattr  uint64
	shedSrc     *core.LRU[netip.Addr, uint64]
	droppedFr   uint64            // frames dropped at the retry cap
	lastCompact uint64            // highest seq successfully compacted
	reloads     uint64            // SetEndpoints calls that changed the set
	orphansRel  uint64            // orphaned pins released (OrphanRelease)
	ackRTT      core.DurationHist // write-to-ack round trips
}

// NewForwardSink validates opts and starts the connection pump. The
// sink dials lazily: no connection is attempted until there is an event
// to ship.
func NewForwardSink(opts ForwardOptions) (*ForwardSink, error) {
	addrs := cleanAddrs(opts.Addrs)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("relay: forward: no collector addresses")
	}
	if opts.Token == "" {
		return nil, fmt.Errorf("relay: forward: empty token")
	}
	if len(opts.Token) > MaxName {
		return nil, fmt.Errorf("relay: forward: token is %d bytes, limit %d", len(opts.Token), MaxName)
	}
	if len(opts.Farm) > MaxName {
		return nil, fmt.Errorf("relay: forward: farm name is %d bytes, limit %d", len(opts.Farm), MaxName)
	}
	f := &ForwardSink{
		opts:    opts.withDefaults(),
		stopCh:  make(chan struct{}),
		shedSrc: core.NewLRU[netip.Addr, uint64](DefaultMaxShedSources),
		epoch:   newEpoch(),
	}
	for _, a := range RankEndpoints(f.opts.Farm, addrs) {
		f.eps = append(f.eps, &endpoint{addr: a, backoff: f.opts.MinBackoff})
	}
	f.cond.L = &f.mu
	if err := f.loadSpoolWAL(); err != nil {
		return nil, err
	}
	f.wg.Add(1)
	go f.pump()
	if f.opts.OrphanRelease > 0 {
		f.wg.Add(1)
		go f.orphanLoop()
	}
	return f, nil
}

// orphanLoop periodically applies the opt-in orphan-release policy so
// an expired orphan is freed even when no traffic makes the write loop
// rescan the spool — without it, a connected-but-idle sink would hold
// a releasable frame until the next reconnect. Runs only when
// Options.OrphanRelease is set.
func (f *ForwardSink) orphanLoop() {
	defer f.wg.Done()
	period := f.opts.OrphanRelease / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
		}
		f.mu.Lock()
		released := false
		for _, fr := range f.spool {
			if fr.owner != "" && f.releaseOrphanLocked(fr) {
				released = true
			}
		}
		if released {
			f.scanIdx = 0 // the serving connection rescans the freed frames
			f.cond.Broadcast()
		}
		f.mu.Unlock()
	}
}

// cleanAddrs trims, drops empties and dedupes an address list, keeping
// first-occurrence order. The strict duplicate check lives at the flag
// parser (cliflags); here a duplicate is collapsed so programmatic
// callers cannot corrupt per-endpoint state.
func cleanAddrs(in []string) []string {
	var out []string
	for _, a := range in {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == a {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a)
		}
	}
	return out
}

// loadSpoolWAL adopts the durable spool: the forwarder's sequence space
// continues the log's, and every journaled-but-unacked frame (sequence
// past the persisted ack mark) is re-encoded into the spool so the next
// connection retransmits it. Journaled ownership is restored by
// endpoint address — a frame pinned to collector A before the crash is
// retransmitted only to A, even if A is currently absent from Addrs
// (the frame waits as an orphan; see spoolFrame.owner) — which is what
// keeps the tier-wide merge exactly-once across a farm restart. Runs
// before the pump starts, so no lock is needed.
func (f *ForwardSink) loadSpoolWAL() error {
	w := f.opts.SpoolWAL
	if w == nil {
		return nil
	}
	f.nextSeq = w.LastSeq()
	f.lastCompact = w.Mark()
	owners := w.Owners()
	now := time.Now()
	owned := 0
	err := w.Replay(w.Mark()+1, func(seq uint64, _ []byte, events []core.Event) error {
		body, rawLen, err := EncodeBatch(seq, events, f.opts.CompressionLevel)
		if err != nil {
			return fmt.Errorf("relay: re-encode spooled frame seq %d: %w", seq, err)
		}
		fr := &spoolFrame{seq: seq, events: len(events), body: body}
		if addr := owners[seq]; addr != "" {
			fr.owner = addr
			fr.pinnedAt = now
			owned++
		}
		f.spool = append(f.spool, fr)
		f.spoolEv += fr.events
		f.spoolB += int64(len(body)) + 4
		f.enqueued += uint64(fr.events)
		f.frames++
		f.wireBytes += uint64(len(body)) + 4
		f.rawBytes += uint64(rawLen)
		return nil
	})
	if err != nil {
		return fmt.Errorf("relay: reload spool: %w", err)
	}
	if n := len(f.spool); n > 0 {
		orphans := 0
		for _, fr := range f.spool {
			if fr.owner != "" && f.endpointByAddrLocked(fr.owner) == nil {
				orphans++
			}
		}
		f.logf("relay: reloaded %d unacked frames (%d events, seq %d..%d, %d pinned, %d orphaned) from spool WAL",
			n, f.spoolEv, f.spool[0].seq, f.spool[n-1].seq, owned, orphans)
	}
	return nil
}

// newEpoch draws the per-process session nonce the collector uses to
// tell a reconnect from a restart. Never zero, so it is distinguishable
// from a collector farmState that has seen no HELLO at all.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to the math/rand source rather than refusing to forward.
		return uint64(rand.Int63()) | 1
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// durable reports whether the spool is WAL-backed — advertised in the
// HELLO so the collector dedups on sequence across session epochs.
func (f *ForwardSink) durable() bool { return f.opts.SpoolWAL != nil }

// Record implements core.Sink.
func (f *ForwardSink) Record(e core.Event) {
	_ = f.RecordBatch([]core.Event{e})
}

// RecordBatch implements core.BatchSink. It never returns an error:
// overload is expressed as accounted shedding (or, with Options.Block,
// as backpressure), not as a failed delivery the bus would re-count.
func (f *ForwardSink) RecordBatch(events []core.Event) error {
	f.mu.Lock()
	for _, e := range events {
		if f.opts.Block {
			for f.overLimitLocked() && !f.stopped {
				f.cond.Wait()
			}
		}
		if f.stopped || f.overLimitLocked() {
			f.shedLocked(e)
			continue
		}
		f.pending = append(f.pending, e)
		f.enqueued++
		if len(f.pending) >= f.opts.FrameEvents {
			f.cutFrameLocked()
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

func (f *ForwardSink) overLimitLocked() bool {
	return f.spoolB+int64(len(f.spool))*spoolFrameOverhead >= f.opts.SpoolBytes
}

// shedLocked counts one shed event against its source. When the
// attribution table is full, the least recently shedding source is
// evicted and its count moves to the unattributed bucket, so shed
// totals stay exact.
func (f *ForwardSink) shedLocked(e core.Event) {
	f.shed++
	a := e.Src.Addr()
	n := f.shedSrc.Get(a)
	if n == nil {
		var evicted *uint64
		n, evicted = f.shedSrc.Add(a, 0)
		if evicted != nil {
			f.shedUnattr += *evicted
		}
	}
	*n++
}

// cutFrameLocked encodes pending events into spool frames, validating
// every cut frame against the wire limits the collector will enforce at
// decode (Options.MaxFrame/MaxRaw). A batch that encodes past either
// bound is split in half until it fits — spooling it would poison the
// spool head: the collector rejects the frame and drops the connection,
// and the retransmit loop would replay it forever. A single event that
// cannot fit alone is shed with attribution instead.
func (f *ForwardSink) cutFrameLocked() {
	for len(f.pending) > 0 {
		n := len(f.pending)
		var body []byte
		var rawLen int
		for body == nil {
			b, rl, err := EncodeBatch(f.nextSeq+1, f.pending[:n], f.opts.CompressionLevel)
			switch {
			case err != nil:
				// Encoding into memory cannot fail outside of a
				// programming error; record it and shed the batch
				// rather than wedging.
				f.noteErrLocked(err)
				f.shedPendingLocked(n)
			case len(b)+4 <= f.opts.MaxFrame && rl <= f.opts.MaxRaw:
				body, rawLen = b, rl
			case n > 1:
				n /= 2
				continue
			default:
				f.noteErrLocked(fmt.Errorf("relay: event exceeds frame limits (%d raw bytes, limit %d)", rl, f.opts.MaxRaw))
				f.shedPendingLocked(1)
			}
			break
		}
		if body == nil {
			continue
		}
		if w := f.opts.SpoolWAL; w != nil {
			// Journal before spooling: a frame the WAL did not accept must
			// not enter the sequence space (its seq would be reused after a
			// restart and the collector would dedup-drop a different
			// batch). A failing disk degrades to accounted shedding, the
			// same contract as a full spool.
			seq, err := w.Append(f.pending[:n], nil)
			if err != nil {
				f.noteErrLocked(err)
				f.logf("relay: spool WAL append: %v (shedding %d events)", err, n)
				f.shedPendingLocked(n)
				continue
			}
			if seq != f.nextSeq+1 {
				// Foreign writer on the log (ownership contract broken).
				// Resync to the WAL's sequence space — it is authoritative —
				// and re-encode under the right sequence number.
				f.noteErrLocked(fmt.Errorf("relay: spool WAL sequence skew: got %d, want %d", seq, f.nextSeq+1))
				f.nextSeq = seq - 1
				if body, rawLen, err = EncodeBatch(seq, f.pending[:n], f.opts.CompressionLevel); err != nil {
					f.noteErrLocked(err)
					f.shedPendingLocked(n)
					continue
				}
			}
		}
		f.nextSeq++
		fr := &spoolFrame{seq: f.nextSeq, events: n, body: body}
		f.spool = append(f.spool, fr)
		f.spoolEv += fr.events
		f.spoolB += int64(len(body)) + 4
		f.frames++
		f.wireBytes += uint64(len(body)) + 4
		f.rawBytes += uint64(rawLen)
		f.consumePendingLocked(n)
	}
}

// shedPendingLocked sheds the first n pending events with attribution,
// unwinding their enqueued count.
func (f *ForwardSink) shedPendingLocked(n int) {
	for _, e := range f.pending[:n] {
		f.enqueued--
		f.shedLocked(e)
	}
	f.consumePendingLocked(n)
}

// consumePendingLocked removes the first n pending events.
func (f *ForwardSink) consumePendingLocked(n int) {
	f.pending = f.pending[:copy(f.pending, f.pending[n:])]
}

func (f *ForwardSink) noteErrLocked(err error) {
	if f.firstErr == nil {
		f.firstErr = err
	}
}

func (f *ForwardSink) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// endpointByAddrLocked resolves an endpoint address against the current
// set; nil when absent (the address owns orphaned frames, or never
// existed).
func (f *ForwardSink) endpointByAddrLocked(addr string) *endpoint {
	for _, ep := range f.eps {
		if ep.addr == addr {
			return ep
		}
	}
	return nil
}

// preferredLocked is the endpoint the sink would rather be connected
// to: the owner of the oldest pinned frame whose owner is present (FIFO
// progress on spooled data — those frames can drain nowhere else),
// otherwise the highest-ranked collector. Orphaned frames — owners
// absent from the current set — cannot steer the dial: there is nothing
// to dial.
func (f *ForwardSink) preferredLocked() *endpoint {
	for _, fr := range f.spool {
		if fr.owner == "" {
			continue
		}
		if ep := f.endpointByAddrLocked(fr.owner); ep != nil {
			return ep
		}
	}
	return f.eps[0]
}

// pickEndpointLocked returns the endpoint to dial now — the preferred
// one if its backoff has expired, else the best-ranked endpoint that is
// due — or nil and the wait until the earliest endpoint comes due.
func (f *ForwardSink) pickEndpointLocked(now time.Time) (*endpoint, time.Duration) {
	pref := f.preferredLocked()
	order := make([]*endpoint, 0, len(f.eps))
	order = append(order, pref)
	for _, ep := range f.eps {
		if ep != pref {
			order = append(order, ep)
		}
	}
	var earliest time.Time
	for _, ep := range order {
		if !ep.due.After(now) {
			return ep, 0
		}
		if earliest.IsZero() || ep.due.Before(earliest) {
			earliest = ep.due
		}
	}
	return nil, earliest.Sub(now)
}

// backoffLocked schedules the endpoint's next allowed dial and, when
// the endpoint failed (dial error, or a connection that died without a
// single ack), doubles its backoff up to MaxBackoff. The double on
// ackless connections is the regression-tested half of the contract: a
// collector that accepts TCP but never acks must not be hammered at the
// floor interval.
func (f *ForwardSink) backoffLocked(ep *endpoint, failed bool) {
	ep.due = time.Now().Add(jitter(ep.backoff))
	if failed {
		ep.backoff *= 2
		if ep.backoff > f.opts.MaxBackoff {
			ep.backoff = f.opts.MaxBackoff
		}
	}
}

// jitter spreads a backoff over [d/2, d] so a farm fleet does not
// reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// pump owns the connection lifecycle: wait for work, pick the best due
// endpoint (rendezvous rank, pinned-frame owner first), dial, serve the
// connection until it breaks, repeat — failing over to the next-ranked
// collector while a dead one backs off.
func (f *ForwardSink) pump() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		for !f.stopped && f.handoff == nil && len(f.spool) == 0 && len(f.pending) == 0 {
			f.cond.Wait()
		}
		if f.stopped {
			f.mu.Unlock()
			return
		}
		if f.handoff != nil {
			// A failback probe already completed the HELLO on a better
			// endpoint; adopt its connection instead of dialing.
			conn, ep := f.handoff, f.handoffEp
			f.handoff = nil
			f.mu.Unlock()
			f.serveConn(conn, ep)
			continue
		}
		ep, wait := f.pickEndpointLocked(time.Now())
		f.mu.Unlock()
		if ep == nil {
			if !f.sleepUntil(wait) {
				return
			}
			continue
		}
		conn, err := f.dialEndpoint(ep)
		if err != nil {
			// Transient by design: the spool holds the events and the
			// next attempt retransmits (possibly to the next-ranked
			// collector), so a failed dial is a counter and a log line,
			// not a sink error.
			f.noteDialError(ep, err)
			continue
		}
		f.serveConn(conn, ep)
	}
}

func (f *ForwardSink) noteDialError(ep *endpoint, err error) {
	f.mu.Lock()
	f.dialErrors++
	ep.dialErrors++
	f.backoffLocked(ep, true)
	f.mu.Unlock()
	f.logf("%v (backing off)", err)
}

// dialEndpoint connects to one collector and completes the HELLO
// exchange.
func (f *ForwardSink) dialEndpoint(ep *endpoint) (net.Conn, error) {
	addr := ep.addr
	conn, err := net.DialTimeout("tcp", addr, f.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("relay: dial %s: %w", addr, err)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
	if err := wire.WriteFrame(conn, encodeHello(f.opts.Token, f.opts.Farm, f.epoch, f.durable())); err != nil {
		conn.Close()
		return nil, fmt.Errorf("relay: hello to %s: %w", addr, err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	f.mu.Lock()
	f.dials++
	ep.dials++
	if f.dials > 1 {
		f.reconnects++
	}
	f.mu.Unlock()
	return conn, nil
}

// sleepUntil sleeps d (at least a millisecond) or until Close.
func (f *ForwardSink) sleepUntil(d time.Duration) bool {
	if d < time.Millisecond {
		d = time.Millisecond
	}
	select {
	case <-time.After(d):
		return true
	case <-f.stopCh:
		return false
	}
}

// serveConn runs one connection: an ack-reader goroutine prunes the
// spool while the write loop streams frames, and (with multiple
// endpoints) a failback prober looks for a better collector. Any side
// failing closes the connection and returns control to the pump, which
// retransmits every still-spooled frame owned here or unowned on the
// next connection.
func (f *ForwardSink) serveConn(conn net.Conn, ep *endpoint) {
	f.mu.Lock()
	f.conn = conn
	f.connected = true
	f.connAcked = false
	f.cur = ep
	f.scanIdx = 0 // retransmit everything unacked that this endpoint may send
	if f.lastServed != nil && f.lastServed.addr != ep.addr {
		f.failovers++
		f.logf("relay: now forwarding to %s (was %s)", ep.addr, f.lastServed.addr)
	}
	f.lastServed = ep
	multi := len(f.eps) > 1
	f.mu.Unlock()

	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	if multi {
		probeWG.Add(1)
		go f.failbackLoop(conn, ep, probeStop, &probeWG)
	}
	ackDone := make(chan struct{})
	go f.ackLoop(conn, ep, ackDone)
	f.writeLoop(conn, ep)
	conn.Close()
	close(probeStop)
	<-ackDone
	probeWG.Wait()

	f.mu.Lock()
	f.conn = nil
	f.connected = false
	f.cur = nil
	f.scanIdx = 0
	// Throttle the immediate redial: an acked (healthy) connection comes
	// back after ~MinBackoff, an ackless one keeps doubling — and either
	// way the pump is free to fail over to the next-ranked collector
	// right now.
	f.backoffLocked(ep, !f.connAcked)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// failbackLoop periodically checks whether a better endpoint than the
// one being served is due, and if so dials it in the background. Only
// on a completed HELLO is the current connection closed and the new one
// handed to the pump — a dead preferred collector costs a probe dial,
// never the working connection.
func (f *ForwardSink) failbackLoop(conn net.Conn, ep *endpoint, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(f.opts.FailbackInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-f.stopCh:
			return
		case <-t.C:
		}
		f.mu.Lock()
		want := f.preferredLocked()
		ok := !f.stopped && f.connected && f.cur == ep && f.handoff == nil &&
			want != ep && !want.due.After(time.Now())
		f.mu.Unlock()
		if !ok {
			continue
		}
		probe, err := f.dialEndpoint(want)
		if err != nil {
			f.noteDialError(want, err)
			continue
		}
		f.mu.Lock()
		if f.stopped || !f.connected || f.cur != ep || f.handoff != nil {
			f.mu.Unlock()
			probe.Close()
			return
		}
		f.handoff = probe
		f.handoffEp = want
		f.mu.Unlock()
		f.logf("relay: failing back to %s", want.addr)
		conn.Close() // write/ack loops exit; the pump adopts the probe
		return
	}
}

// writeLoop streams spooled frames in sequence order — skipping frames
// pinned to other endpoints — and cuts pending events into a fresh
// frame whenever it catches up, so under light load every batch ships
// as soon as the previous write returns, without a flush timer. The
// first write of a frame pins it to this endpoint's address, and on a
// durable spool the pin is journaled before any byte can reach the
// collector — so no collector can ever hold a frame the journal does
// not pin to it.
func (f *ForwardSink) writeLoop(conn net.Conn, ep *endpoint) {
	first := true
	for {
		f.mu.Lock()
		var fr *spoolFrame
		for fr == nil {
			for f.scanIdx < len(f.spool) {
				cand := f.spool[f.scanIdx]
				if cand.owner != "" && cand.owner != ep.addr {
					if !f.releaseOrphanLocked(cand) {
						f.scanIdx++ // pinned elsewhere; its owner will drain it
						continue
					}
				}
				fr = cand
				break
			}
			if fr != nil {
				break
			}
			if len(f.pending) > 0 {
				f.cutFrameLocked() // may shed on encode failure; rescan
				continue
			}
			if f.stopped || !f.connected {
				f.mu.Unlock()
				return
			}
			f.cond.Wait()
		}
		if f.stopped || !f.connected {
			f.mu.Unlock()
			return
		}
		if fr.attempts >= f.opts.MaxFrameRetries {
			// Led the retransmission on MaxFrameRetries connections
			// without ever being acked: the collector is rejecting this
			// frame at decode (limits skew or corruption in transit that
			// survives TCP). Drop it so the spool drains instead of
			// replaying the same frame forever; the loss is counted,
			// never silent.
			f.removeFrameLocked(f.scanIdx)
			f.enqueued -= uint64(fr.events)
			f.shed += uint64(fr.events)
			f.shedUnattr += uint64(fr.events)
			f.droppedFr++
			f.noteErrLocked(fmt.Errorf("relay: frame seq %d (%d events) dropped after %d unacked transmissions", fr.seq, fr.events, fr.attempts))
			f.cond.Broadcast()
			f.mu.Unlock()
			f.logf("relay: dropping frame seq=%d (%d events) after %d unacked transmissions", fr.seq, fr.events, fr.attempts)
			continue
		}
		if first {
			fr.attempts++
			first = false
		}
		if fr.owner == "" {
			fr.owner = ep.addr
			fr.pinnedAt = time.Now()
			if w := f.opts.SpoolWAL; w != nil {
				// Journal the pin BEFORE the frame goes on the wire: once
				// any byte may have reached this collector, a restarted
				// farm must never offer the frame elsewhere. A journal
				// write that fails keeps the in-memory pin and degrades
				// the guarantee to this process's lifetime — noted, never
				// silent.
				if err := w.AppendOwner(fr.seq, ep.addr); err != nil {
					f.noteErrLocked(err)
					f.logf("relay: journal owner seq=%d -> %s: %v", fr.seq, ep.addr, err)
				}
			}
		}
		f.scanIdx++
		f.mu.Unlock()

		_ = conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
		if err := wire.WriteFrame(conn, fr.body); err != nil {
			// Also transient: the frame stays spooled (now pinned here)
			// and ships again after the reconnect.
			f.mu.Lock()
			f.writeErrors++
			f.mu.Unlock()
			f.logf("relay: write to %s: %v (will reconnect)", ep.addr, err)
			return
		}
		f.mu.Lock()
		f.framesSent++
		fr.sentAt = time.Now()
		f.mu.Unlock()
	}
}

// releaseOrphanLocked applies the opt-in orphan-release policy to a
// frame pinned to an endpoint absent from the current set: past
// Options.OrphanRelease the pin is dropped (and the release journaled,
// so a restart does not resurrect it) and the frame becomes eligible
// for any collector. With the policy off — the default — it reports
// false and the frame keeps waiting for its owner.
func (f *ForwardSink) releaseOrphanLocked(fr *spoolFrame) bool {
	if f.opts.OrphanRelease <= 0 {
		return false
	}
	if f.endpointByAddrLocked(fr.owner) != nil {
		return false // owner present; not an orphan
	}
	if time.Since(fr.pinnedAt) < f.opts.OrphanRelease {
		return false
	}
	f.logf("relay: releasing frame seq=%d from departed endpoint %s after %s", fr.seq, fr.owner, f.opts.OrphanRelease)
	fr.owner = ""
	f.orphansRel++
	if w := f.opts.SpoolWAL; w != nil {
		if err := w.AppendOwner(fr.seq, ""); err != nil {
			f.noteErrLocked(err)
		}
	}
	return true
}

// removeFrameLocked drops spool[i], keeping the connection's scan
// cursor pointing at the same next frame.
func (f *ForwardSink) removeFrameLocked(i int) {
	fr := f.spool[i]
	f.spool = append(f.spool[:i], f.spool[i+1:]...)
	if f.scanIdx > i {
		f.scanIdx--
	}
	f.spoolEv -= fr.events
	f.spoolB -= int64(len(fr.body)) + 4
}

// ackLoop reads cumulative ACKs and prunes the spool. An ack from an
// endpoint covers exactly the frames pinned to it — a cumulative
// sequence from one collector says nothing about frames another
// collector still owes. A read error closes the connection so the write
// loop notices.
func (f *ForwardSink) ackLoop(conn net.Conn, ep *endpoint, done chan<- struct{}) {
	defer close(done)
	for {
		body, err := wire.ReadFrame(conn, DefaultMaxFrame)
		if err != nil {
			conn.Close()
			f.mu.Lock()
			f.connected = false
			f.cond.Broadcast()
			f.mu.Unlock()
			return
		}
		seq, err := decodeAck(body)
		if err != nil {
			f.mu.Lock()
			f.noteErrLocked(err)
			f.mu.Unlock()
			conn.Close()
			continue // next read fails and exits the loop
		}
		f.mu.Lock()
		acked := false
		for i := 0; i < len(f.spool); {
			fr := f.spool[i]
			if fr.seq > seq {
				break
			}
			if fr.owner != ep.addr {
				i++ // another collector's frame; its own ack prunes it
				continue
			}
			f.removeFrameLocked(i)
			f.framesAcked++
			f.eventsAcked += uint64(fr.events)
			ep.framesAcked++
			ep.eventsAcked += uint64(fr.events)
			if !fr.sentAt.IsZero() {
				f.ackRTT.Observe(time.Since(fr.sentAt))
			}
			acked = true
		}
		if acked {
			if !f.connAcked {
				// First acked frame on this connection: the collector is
				// demonstrably processing frames, so the endpoint earns
				// its backoff reset. A successful dial alone does not —
				// see backoffLocked.
				f.connAcked = true
				ep.backoff = f.opts.MinBackoff
			}
			f.compactSpoolLocked()
		}
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// compactSpoolLocked persists the contiguous ack floor as a spool WAL
// mark and reclaims fully-acked segments; after a restart,
// Replay(Mark()+1) reloads only what is still unacked. The floor — not
// the raw acked sequence — because with pinned frames a later sequence
// can be acked by one collector while an earlier frame still awaits
// another. A mark that fails to persist is harmless to correctness —
// the frames replay and the collector's durable dedup drops them — so
// the error is only noted; but lastCompact advances only on success, or
// one failed compaction would silence every retry at that floor and
// fully-acked segments would pile up until the process restarted.
func (f *ForwardSink) compactSpoolLocked() {
	if f.opts.SpoolWAL == nil {
		return
	}
	floor := f.nextSeq
	if len(f.spool) > 0 {
		floor = f.spool[0].seq - 1
	}
	if floor > f.lastCompact {
		if _, err := f.opts.SpoolWAL.Compact(floor); err != nil {
			f.noteErrLocked(err)
		} else {
			f.lastCompact = floor
		}
	}
}

// SetEndpoints re-ranks a live forwarder onto a changed collector tier
// without a restart: the new address set is rendezvous-ranked for this
// farm (RankEndpoints), per-endpoint state — dial counters, ack counts,
// backoff — is carried over for every surviving address (so the
// decoydb_relay_endpoint_* metrics survive the swap), and fresh state is
// built for new ones. Frames pinned to a removed address become orphans:
// they are never retransmitted to a different collector (unless
// Options.OrphanRelease fires) and drain when the address is added back.
// If the set actually changed while a connection is up, the connection
// is closed so the pump immediately re-dials the new preferred endpoint
// — a deliberate kick that doubles as the failback probe for tiers that
// grew from one collector (no prober runs on single-endpoint
// connections). An unchanged set is a no-op. Safe to call concurrently
// with recording and delivery; returns an error on an empty set or a
// closed sink.
func (f *ForwardSink) SetEndpoints(addrs []string) error {
	cleaned := cleanAddrs(addrs)
	if len(cleaned) == 0 {
		return fmt.Errorf("relay: forward: no collector addresses")
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return fmt.Errorf("relay: forward: sink closed")
	}
	same := len(cleaned) == len(f.eps)
	if same {
		for _, a := range cleaned {
			if f.endpointByAddrLocked(a) == nil {
				same = false
				break
			}
		}
	}
	if same {
		f.mu.Unlock()
		return nil
	}
	old := make(map[string]*endpoint, len(f.eps))
	for _, ep := range f.eps {
		old[ep.addr] = ep
	}
	f.eps = f.eps[:0:0]
	for _, a := range RankEndpoints(f.opts.Farm, cleaned) {
		if ep, ok := old[a]; ok {
			f.eps = append(f.eps, ep)
		} else {
			f.eps = append(f.eps, &endpoint{addr: a, backoff: f.opts.MinBackoff})
		}
	}
	f.reloads++
	conn, handoff := f.conn, f.handoff
	f.handoff = nil
	orphans := 0
	for _, fr := range f.spool {
		if fr.owner != "" && f.endpointByAddrLocked(fr.owner) == nil {
			orphans++
		}
	}
	pref := f.preferredLocked()
	f.cond.Broadcast()
	f.mu.Unlock()
	// Close outside the lock: the write/ack loops take f.mu on their way
	// out. The pump then re-ranks from scratch — preferred endpoint
	// first — exactly as after any disconnect.
	if conn != nil {
		conn.Close()
	}
	if handoff != nil {
		handoff.Close()
	}
	f.logf("relay: endpoints reloaded: %v (preferred %s, %d orphaned frames)", cleaned, pref.addr, orphans)
	return nil
}

// Flush implements core.Flusher: it waits — up to Options.FlushTimeout —
// for every enqueued event to be acked by the collector tier. With every
// collector unreachable the timeout expires and the remaining events
// stay spooled (visible in Stats), which is exactly what the shutdown
// accounting wants: nothing silently discarded.
func (f *ForwardSink) Flush() {
	deadline := time.Now().Add(f.opts.FlushTimeout)
	for {
		f.mu.Lock()
		drained := len(f.spool) == 0 && len(f.pending) == 0
		stopped := f.stopped
		f.cond.Broadcast() // nudge the pump in case it waits on work
		f.mu.Unlock()
		if drained || stopped || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops the pump and closes the connection. Unacked frames remain
// in the spool for Stats accounting; call Flush first to drain them.
// Close returns the first non-recoverable error observed (nil if none);
// transient dial and write failures are healed by retransmission and
// surface only as Stats counters.
func (f *ForwardSink) Close() error {
	f.mu.Lock()
	if f.stopped {
		err := f.firstErr
		f.mu.Unlock()
		return err
	}
	if f.durable() {
		// Journal the unframed tail: pending events below the frame
		// cutoff would otherwise exist only in memory, and the restart
		// that replays the spool WAL would silently lose them.
		f.cutFrameLocked()
	}
	f.stopped = true
	conn := f.conn
	handoff := f.handoff
	f.handoff = nil
	close(f.stopCh)
	f.cond.Broadcast()
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if handoff != nil {
		handoff.Close()
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// Err returns the first non-recoverable error observed so far.
func (f *ForwardSink) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// EndpointStats is the per-collector slice of Stats, in rendezvous rank
// order for this farm (Rank 0 is the collector the farm prefers).
type EndpointStats struct {
	Addr    string
	Rank    int
	Current bool // the connection being served, if any

	Dials       uint64
	DialErrors  uint64
	FramesAcked uint64
	EventsAcked uint64

	// PinnedFrames counts spooled frames pinned to this endpoint —
	// frames it may have ingested without the ack arriving, which only
	// it is allowed to see again.
	PinnedFrames int
	// Backoff is the endpoint's next failure sleep; MinBackoff means
	// healthy.
	Backoff time.Duration
}

// Stats is a point-in-time snapshot of forwarder counters. The books
// always balance: Enqueued = EventsAcked + SpoolEvents + Pending, and
// offered events split into Enqueued + Shed.
type Stats struct {
	Farm      string
	Connected bool

	Enqueued    uint64 // events accepted into pending/spool
	Frames      uint64 // frames encoded
	FramesSent  uint64 // frame writes completed (retransmits included)
	FramesAcked uint64
	EventsAcked uint64 // events the collector tier has acknowledged
	WireBytes   uint64 // compressed frame bytes produced (incl. prefix)
	RawBytes    uint64 // uncompressed payload bytes

	Dials      uint64
	DialErrors uint64
	Reconnects uint64 // successful dials after the first
	// Failovers counts connections served by a different endpoint than
	// the previous one — both emergency cutovers to a lower-ranked
	// collector and failbacks when a better one returned.
	Failovers uint64
	// Reloads counts SetEndpoints calls that changed the endpoint set.
	Reloads uint64

	// Endpoints is the per-collector breakdown, rank order.
	Endpoints []EndpointStats

	// OrphanFrames counts spooled frames pinned to an address absent
	// from the current endpoint set — held back, never retransmitted
	// elsewhere, until the owner returns or Options.OrphanRelease fires.
	OrphanFrames int
	// OrphansReleased counts pins dropped by the orphan-release policy.
	OrphansReleased uint64

	SpoolFrames int   // frames currently spooled (unacked)
	SpoolEvents int   // events in those frames
	SpoolBytes  int64 // wire bytes those frames occupy
	Pending     int   // events not yet framed

	Shed uint64 // events dropped: spool full, oversized, or retry cap
	// Shedders are the heaviest shed sources, descending; at most
	// core.TopShedders entries.
	Shedders []core.SourceShed
	// ShedUnattributed counts sheds of sources evicted from the bounded
	// attribution table (including events inside frames dropped at the
	// retry cap, whose source addresses are no longer available).
	ShedUnattributed uint64
	// DroppedFrames counts spooled frames dropped at
	// Options.MaxFrameRetries (their events are included in Shed).
	DroppedFrames uint64
	// AckRTT is the distribution of frame write-to-ack round trips —
	// the live health signal for the farm→collector link (a rising RTT
	// means the collector or the path is saturating before the spool
	// ever fills).
	AckRTT core.DurationHist
}

// CompressionRatio is uncompressed/compressed payload bytes (0 when
// nothing has been framed).
func (s Stats) CompressionRatio() float64 {
	if s.WireBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.WireBytes)
}

// String renders the snapshot as one operational log line.
func (s Stats) String() string {
	var sb strings.Builder
	state := "down"
	if s.Connected {
		state = "up"
		for _, ep := range s.Endpoints {
			if ep.Current {
				state = ep.Addr
				break
			}
		}
	}
	fmt.Fprintf(&sb, "relay[%s→%s]: enq=%d acked=%d spool=%d/%dev pend=%d frames=%d ratio=%.2f reconn=%d",
		s.Farm, state, s.Enqueued, s.EventsAcked, s.SpoolFrames, s.SpoolEvents, s.Pending,
		s.Frames, s.CompressionRatio(), s.Reconnects)
	if len(s.Endpoints) > 1 {
		fmt.Fprintf(&sb, " eps=%d failover=%d", len(s.Endpoints), s.Failovers)
	}
	if s.DroppedFrames > 0 {
		fmt.Fprintf(&sb, " dropped=%dfr", s.DroppedFrames)
	}
	core.WriteShed(&sb, s.Shedders, s.ShedUnattributed)
	return sb.String()
}

// Stats snapshots the counters. Safe to call concurrently with
// recording and delivery.
func (f *ForwardSink) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Farm:             f.opts.Farm,
		Connected:        f.connected,
		Enqueued:         f.enqueued,
		Frames:           f.frames,
		FramesSent:       f.framesSent,
		FramesAcked:      f.framesAcked,
		EventsAcked:      f.eventsAcked,
		WireBytes:        f.wireBytes,
		RawBytes:         f.rawBytes,
		Dials:            f.dials,
		DialErrors:       f.dialErrors,
		Reconnects:       f.reconnects,
		Failovers:        f.failovers,
		Reloads:          f.reloads,
		OrphansReleased:  f.orphansRel,
		SpoolFrames:      len(f.spool),
		SpoolEvents:      f.spoolEv,
		SpoolBytes:       f.spoolB,
		Pending:          len(f.pending),
		Shed:             f.shed,
		ShedUnattributed: f.shedUnattr,
		DroppedFrames:    f.droppedFr,
		AckRTT:           f.ackRTT,
	}
	pinned := make(map[string]int, len(f.eps))
	for _, fr := range f.spool {
		if fr.owner == "" {
			continue
		}
		pinned[fr.owner]++
		if f.endpointByAddrLocked(fr.owner) == nil {
			st.OrphanFrames++
		}
	}
	for i, ep := range f.eps {
		st.Endpoints = append(st.Endpoints, EndpointStats{
			Addr:         ep.addr,
			Rank:         i,
			Current:      f.connected && f.cur == ep,
			Dials:        ep.dials,
			DialErrors:   ep.dialErrors,
			FramesAcked:  ep.framesAcked,
			EventsAcked:  ep.eventsAcked,
			PinnedFrames: pinned[ep.addr],
			Backoff:      ep.backoff,
		})
	}
	for a, n := range f.shedSrc.All() {
		st.Shedders = append(st.Shedders, core.SourceShed{Addr: a, Shed: *n})
	}
	st.Shedders = core.Heaviest(st.Shedders)
	return st
}
