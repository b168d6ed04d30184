package relay

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"slices"
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
	// returns.
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

	// FrameEvents is the most events per frame; pending events are cut
	// into a frame when they reach it. A caught-up writer cuts smaller,
	// partial frames, at most one every 5 ms, and Flush and Close cut
	// whatever is pending at once. 0 means DefaultFrameEvents; values
	// above DefaultMaxBatchEvents are clamped — a default-configured
	// collector rejects larger frames.
	FrameEvents int
	// SpoolBytes caps the memory held by encoded frames buffered while
	// unacked: their wire bytes plus spoolFrameOverhead per frame, so
	// the one bound holds even when frames carry a single event. 0 means
	// DefaultSpoolBytes.
	SpoolBytes int64

	// SpoolWAL, when non-nil, journals the spool (in practice a
	// *wal.Log): frames, their owners and the ack mark, so a restarted
	// forwarder reloads every unacked frame with its owner and never
	// replays a frame to a collector other than its owner (see
	// ledger). Frame sequence numbers are the WAL's, which survive
	// restarts, and each batch is journaled with the epoch, so a restart
	// that replays frames keeps the name collectors dedup them under.
	// The sink must own the log exclusively while open; the caller
	// closes it. Assign only a non-nil concrete value: a nil *wal.Log in
	// the interface reads as a present, broken log.
	SpoolWAL SpoolLog

	// WriteTimeout and FlushTimeout bound single frame writes and Flush
	// (connection attempts take DefaultDialTimeout). Zero values take the
	// package defaults.
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

// Defaults for ForwardOptions, and the dial timeout and retry cap
// (see ledger.next) every forwarder uses.
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
	if o.SpoolBytes <= 0 {
		o.SpoolBytes = DefaultSpoolBytes
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
		o.MaxBackoff = max(DefaultMaxBackoff, o.MinBackoff)
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
// goroutines and go into the sink's ledger, which frames, spools and
// journals them. A background pump goroutine owns the TCP connection:
// rank the endpoints by rendezvous hash, dial the best one due, HELLO,
// write the frames the ledger hands out with a deadline, read cumulative
// ACKs into the ledger, and on failure fail over to the next-ranked
// collector while the dead one backs off — retransmitting everything
// unacked, except that frames already handed to one collector stay
// pinned to it (see spoolFrame.owner). A caught-up writer gathers
// pending events for up to 5 ms before it frames them, so under load a
// frame carries many bus batches (see ledger.next).
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
	led  *ledger   // frame state; guarded by mu, except the read-only epoch

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

	// Transport counters (guarded by mu).
	dials      uint64
	dialErrors uint64
	reconnects uint64
	failovers  uint64
	reloads    uint64 // SetEndpoints calls that changed the set
}

// NewForwardSink validates opts, reloads the spool WAL if one is set,
// and starts the connection pump. The sink dials lazily: no connection
// is attempted until there is an event to ship.
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
		opts:   opts.withDefaults(),
		stopCh: make(chan struct{}),
	}
	for _, a := range RankEndpoints(f.opts.Farm, addrs) {
		f.eps = append(f.eps, &endpoint{addr: a, backoff: f.opts.MinBackoff})
	}
	f.cond.L = &f.mu
	f.led = newLedger(f.opts, f.logf)
	if err := f.led.reload(newEpoch()); err != nil {
		return nil, err
	}
	if n := f.orphansLocked(f.led.pins()); n > 0 {
		f.logf("relay: %d reloaded frames are orphaned: their owners are not in %v", n, addrs)
	}
	f.wg.Add(1)
	go f.pump()
	return f, nil
}

// cleanAddrs trims, drops empties and dedupes an address list, keeping
// first-occurrence order. The strict duplicate check lives at the flag
// parser (cliflags); here a duplicate is collapsed so programmatic
// callers cannot corrupt per-endpoint state.
func cleanAddrs(in []string) []string {
	var out []string
	for _, a := range in {
		if a = strings.TrimSpace(a); a != "" && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// newEpoch draws a fresh epoch for a sequence space that starts with
// nothing to replay (see ledger.reload). Never zero, so it is
// distinguishable from a collector farmState that has seen no HELLO at
// all.
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

// Record implements core.Sink.
func (f *ForwardSink) Record(e core.Event) {
	_ = f.RecordBatch([]core.Event{e})
}

// RecordBatch implements core.BatchSink. It never returns an error:
// overload is expressed as accounted shedding (or, with Options.Block,
// as backpressure), not as a failed delivery the bus would re-count.
//
// It wakes the writer only when the ledger has new work for it (the
// first pending event, or a frame cut), not once per batch: a writer
// that lingers over pending events would only wait again.
func (f *ForwardSink) RecordBatch(events []core.Event) error {
	f.mu.Lock()
	wake := false
	for _, e := range events {
		if f.opts.Block {
			for f.led.full() && !f.stopped {
				if wake {
					f.cond.Broadcast()
					wake = false
				}
				f.cond.Wait()
			}
		}
		if f.stopped || f.led.full() {
			f.led.shedEvent(e)
			continue
		}
		wake = f.led.add(e) || wake
	}
	if wake {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
	return nil
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

// orphansLocked counts the frames in a per-owner pin count whose owner
// is absent from the current endpoint set: they wait for it to return.
func (f *ForwardSink) orphansLocked(pins map[string]int) int {
	n := 0
	for addr, frames := range pins {
		if f.endpointByAddrLocked(addr) == nil {
			n += frames
		}
	}
	return n
}

// preferredLocked is the endpoint the sink would rather be connected
// to: the owner of the oldest pinned frame whose owner is present (FIFO
// progress on spooled data — those frames can drain nowhere else),
// otherwise the highest-ranked collector. Orphaned frames — owners
// absent from the current set — cannot steer the dial: there is nothing
// to dial.
func (f *ForwardSink) preferredLocked() *endpoint {
	owner := f.led.oldestOwner(func(addr string) bool { return f.endpointByAddrLocked(addr) != nil })
	if ep := f.endpointByAddrLocked(owner); ep != nil {
		return ep
	}
	return f.eps[0]
}

// pickEndpointLocked returns the endpoint to dial now — the preferred
// one if its backoff has expired, else the best-ranked endpoint that is
// due — or nil and the wait until the earliest endpoint comes due.
func (f *ForwardSink) pickEndpointLocked(now time.Time) (*endpoint, time.Duration) {
	pref := f.preferredLocked()
	soonest := pref
	for _, ep := range append([]*endpoint{pref}, f.eps...) {
		if !ep.due.After(now) {
			return ep, 0
		}
		if ep.due.Before(soonest.due) {
			soonest = ep
		}
	}
	return nil, soonest.due.Sub(now)
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
		for !f.stopped && f.handoff == nil && f.led.idle() {
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
			select {
			case <-time.After(max(wait, time.Millisecond)):
			case <-f.stopCh:
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
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("relay: dial %s: %w", addr, err)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
	if err := wire.WriteFrame(conn, encodeHello(f.opts.Token, f.opts.Farm, f.led.epoch)); err != nil {
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

// serveConn runs one connection: an ack-reader goroutine feeds acks to
// the ledger while the write loop streams frames, and (with multiple
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
	f.led.rewind() // retransmit everything unacked that this endpoint may send
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

// writeLoop asks the ledger for the next frame this endpoint may
// write, writes it, and records the write; when the ledger is caught up
// it waits for new events, acks or a disconnect, and while the ledger
// lingers over pending events, for a timer that wakes it when the
// linger ends.
func (f *ForwardSink) writeLoop(conn net.Conn, ep *endpoint) {
	// linger wakes the loop when the ledger's linger ends; it is armed
	// only while the ledger holds pending events back.
	linger := time.AfterFunc(frameLinger, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	linger.Stop()
	defer linger.Stop()
	for {
		f.mu.Lock()
		var fr *spoolFrame
		for !f.stopped && f.connected {
			var wait time.Duration
			if fr, wait = f.led.next(ep.addr, time.Now()); fr != nil {
				break
			}
			if wait > 0 {
				linger.Reset(wait)
			}
			// next may have dropped frames at the retry cap, freeing
			// spool space a blocked RecordBatch waits for.
			f.cond.Broadcast()
			f.cond.Wait()
		}
		f.mu.Unlock()
		if fr == nil {
			return
		}

		_ = conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
		if err := wire.WriteFrame(conn, fr.body); err != nil {
			// Transient: the frame stays spooled (pinned here) and ships
			// again after the reconnect.
			f.logf("relay: write to %s: %v (will reconnect)", ep.addr, err)
			return
		}
		f.mu.Lock()
		f.led.sent(fr, time.Now())
		f.mu.Unlock()
	}
}

// ackLoop reads cumulative ACKs into the ledger, which prunes the
// frames pinned to this endpoint. A read error closes the connection so
// the write loop notices.
func (f *ForwardSink) ackLoop(conn net.Conn, ep *endpoint, done chan<- struct{}) {
	defer close(done)
	for {
		body, err := wire.ReadFrame(conn, maxAckFrame)
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
			f.led.noteErr(err)
			f.mu.Unlock()
			conn.Close()
			continue // next read fails and exits the loop
		}
		f.mu.Lock()
		frames, events := f.led.ack(ep.addr, seq, time.Now())
		if frames > 0 {
			ep.framesAcked += uint64(frames)
			ep.eventsAcked += uint64(events)
			if !f.connAcked {
				// First acked frame on this connection: the collector is
				// demonstrably processing frames, so the endpoint earns
				// its backoff reset. A successful dial alone does not —
				// see backoffLocked.
				f.connAcked = true
				ep.backoff = f.opts.MinBackoff
			}
		}
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// SetEndpoints re-ranks a live forwarder onto a changed collector tier
// without a restart: the new address set is rendezvous-ranked for this
// farm (RankEndpoints), per-endpoint state — dial counters, ack counts,
// backoff — is carried over for every surviving address (so the
// decoydb_relay_endpoint_* metrics survive the swap), and fresh state is
// built for new ones. Frames pinned to a removed address become orphans:
// they are never retransmitted to a different collector and drain when
// the address is added back. If the set actually changed while a
// connection is up, the connection is closed so the pump immediately
// re-dials the new preferred endpoint — a deliberate kick that doubles
// as the failback probe for tiers that grew from one collector (no
// prober runs on single-endpoint connections). An unchanged set is a
// no-op. Safe to call concurrently with recording and delivery; returns
// an error on an empty set or a closed sink.
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
	for i := 0; same && i < len(cleaned); i++ {
		same = f.endpointByAddrLocked(cleaned[i]) != nil
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
	orphans := f.orphansLocked(f.led.pins())
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

// Flush implements core.Flusher: it cuts whatever is pending into a
// frame at once, without waiting out the linger, and waits — up to
// Options.FlushTimeout — for every enqueued event to be acked by the
// collector tier. With every collector unreachable the timeout expires
// and the remaining events stay spooled (visible in Stats), which is
// exactly what the shutdown accounting wants: nothing silently
// discarded.
func (f *ForwardSink) Flush() {
	deadline := time.Now().Add(f.opts.FlushTimeout)
	for {
		f.mu.Lock()
		f.led.cut()
		drained := f.led.idle()
		stopped := f.stopped
		f.cond.Broadcast() // nudge the pump in case it waits on work
		f.mu.Unlock()
		if drained || stopped || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close cuts whatever is pending into a frame at once, stops the pump
// and closes the connection. Unacked frames remain in the spool for
// Stats accounting; call Flush first to drain them. Close returns the
// first non-recoverable error observed (nil if none); transient dial
// and write failures are healed by retransmission and surface only as
// Stats counters.
func (f *ForwardSink) Close() error {
	f.mu.Lock()
	if f.stopped {
		err := f.led.firstErr
		f.mu.Unlock()
		return err
	}
	// Journal the unframed tail: on a durable spool, pending events would
	// otherwise exist only in memory, and the restart that replays the
	// spool WAL would silently lose them.
	f.led.cut()
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
	return f.Err()
}

// Err returns the first non-recoverable error observed so far.
func (f *ForwardSink) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.led.firstErr
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
	WireBytes   uint64 // frame bytes produced (incl. prefix)
	RawBytes    uint64 // raw event-encoding bytes framed

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
	// elsewhere, until the owner returns.
	OrphanFrames int

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
	// DefaultMaxFrameRetries (their events are included in Shed).
	DroppedFrames uint64
	// AckRTT is the distribution of frame write-to-ack round trips —
	// the live health signal for the farm→collector link (a rising RTT
	// means the collector or the path is saturating before the spool
	// ever fills).
	AckRTT core.DurationHist
}

// CompressionRatio is RawBytes/WireBytes (0 when nothing has been
// framed). Frames carry stored blocks, so it sits below 1: it is the
// share of the wire bytes that is event encoding, the rest being
// framing.
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
		Farm:       f.opts.Farm,
		Connected:  f.connected,
		Dials:      f.dials,
		DialErrors: f.dialErrors,
		Reconnects: f.reconnects,
		Failovers:  f.failovers,
		Reloads:    f.reloads,
	}
	f.led.stats(&st)
	pins := f.led.pins()
	st.OrphanFrames = f.orphansLocked(pins)
	for i, ep := range f.eps {
		st.Endpoints = append(st.Endpoints, EndpointStats{
			Addr:         ep.addr,
			Rank:         i,
			Current:      f.connected && f.cur == ep,
			Dials:        ep.dials,
			DialErrors:   ep.dialErrors,
			FramesAcked:  ep.framesAcked,
			EventsAcked:  ep.eventsAcked,
			PinnedFrames: pins[ep.addr],
			Backoff:      ep.backoff,
		})
	}
	return st
}
