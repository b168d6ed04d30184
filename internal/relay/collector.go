package relay

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wire"
)

// CollectorOptions configure a Collector. Token is required.
type CollectorOptions struct {
	// Token is the shared secret every forwarder must present. Compared
	// in constant time; a mismatch closes the connection without a
	// response (the port is Internet-facing — it should look like
	// nothing to a scanner).
	Token string
	// IdleTimeout drops an authenticated connection that sends no frame
	// for this long — a half-open or dead farm link must not pin its
	// handler goroutine and conns entry forever. The forwarder dials
	// lazily, so an idle farm simply reconnects when it next has events.
	// 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Farms seeds the per-farm dedup state, restoring the high-water
	// marks a previous collector process journalled before it died (see
	// DecodeSourceTag). A restored farm's retransmitted batches dedup
	// exactly as if the collector had never restarted.
	Farms map[string]FarmMark
	// Logf, when non-nil, receives operational diagnostics.
	Logf func(format string, args ...any)
}

// FarmMark is a restorable dedup high-water mark for one farm: the
// epoch of the sequence space it belongs to and the highest sequence
// ingested within it. dbcollect rebuilds these from the WAL batch tags
// on reopen.
type FarmMark struct {
	Epoch   uint64
	LastSeq uint64
}

// DefaultHelloTimeout is how long a fresh connection gets to present a
// valid HELLO before being cut.
const DefaultHelloTimeout = 10 * time.Second

// DefaultIdleTimeout is how long an authenticated connection may stay
// silent before being cut.
const DefaultIdleTimeout = 5 * time.Minute

func (o CollectorOptions) withDefaults() CollectorOptions {
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	return o
}

// farmState is the per-farm dedup and accounting record. Ingest and ack
// for one farm serialise on its mutex, so a farm that reconnects while
// its old connection drains cannot interleave batches. The dedup key is
// (epoch, sequence): a forwarder whose sequence space starts over
// announces a fresh epoch in HELLO (see hello), and admit classifies
// each batch against the mark.
type farmState struct {
	mu        sync.Mutex
	epoch     uint64 // epoch of the sequence space the mark belongs to
	last      uint64 // highest ingested sequence within epoch
	frames    uint64
	events    uint64
	dupFrames uint64
	dupEvents uint64
}

// admission is admit's verdict on one batch.
type admission int

const (
	admitFresh      admission = iota // ingest it, then advance last
	admitDuplicate                   // already ingested: ack, never re-ingest
	admitSuperseded                  // a newer session owns the farm: drop the connection
)

// hello adopts the epoch a connection announced, and resets the mark
// if and only if the epoch changed. The forwarder keeps its epoch
// whenever it may resend a frame (a reconnect, or a restart replaying
// its spool), so those frames read as duplicates; a new epoch means the
// sequence space started over, and the old mark would read every new
// batch as a duplicate.
func (fs *farmState) hello(epoch uint64) {
	if fs.epoch != epoch {
		fs.epoch, fs.last = epoch, 0
	}
}

// admit classifies batch seq arriving on a connection that announced
// epoch. It leaves the mark alone: the caller advances last only once
// the batch is ingested.
func (fs *farmState) admit(epoch, seq uint64) admission {
	switch {
	case fs.epoch != epoch:
		return admitSuperseded
	case seq <= fs.last:
		return admitDuplicate
	}
	return admitFresh
}

// Collector terminates relay connections on the analysis host:
// authenticate (shared token), decode frames, dedup on (farm,
// sequence), fan each decoded batch into the local sinks (evstore,
// StatsSink, ...), and acknowledge. It is the receiving half of the
// at-least-once contract: the forwarder retransmits until acked, the
// collector ingests each (farm, sequence) exactly once.
//
// Serve may be called repeatedly (and concurrently, for multiple
// listeners); Close stops all current listeners and connections but
// keeps the dedup state, so a collector can be bounced — or re-armed on
// a fresh listener after a crash drill — without double counting.
type Collector struct {
	opts CollectorOptions
	fan  *core.Fanout

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	farms  map[string]*farmState
	closed bool // true while Close is tearing down; reset by Serve

	wg sync.WaitGroup

	conns_    atomic.Uint64
	auths     atomic.Uint64 // authenticated connections
	authFails atomic.Uint64
	badFrames atomic.Uint64
	frames    atomic.Uint64
	events    atomic.Uint64
	dupFrames atomic.Uint64
	dupEvents atomic.Uint64
	wireBytes atomic.Uint64
	rawBytes  atomic.Uint64

	errMu    sync.Mutex
	firstErr error
}

// NewCollector creates a collector fanning decoded batches into sinks.
// At least one sink is required.
func NewCollector(opts CollectorOptions, sinks ...core.Sink) (*Collector, error) {
	if opts.Token == "" {
		return nil, fmt.Errorf("relay: collector: empty token")
	}
	if len(opts.Token) > MaxName {
		return nil, fmt.Errorf("relay: collector: token is %d bytes, limit %d", len(opts.Token), MaxName)
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("relay: collector: no sinks registered")
	}
	c := &Collector{
		opts:  opts.withDefaults(),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
		farms: make(map[string]*farmState),
		fan:   core.NewFanout(sinks...),
	}
	for name, m := range c.opts.Farms {
		c.farms[name] = &farmState{epoch: m.Epoch, last: m.LastSeq}
	}
	return c, nil
}

// Serve accepts relay connections on ln until the listener is closed
// (by the caller or by Close). It returns nil on a clean close.
func (c *Collector) Serve(ln net.Listener) error {
	c.mu.Lock()
	c.closed = false
	c.lns[ln] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.lns, ln)
		c.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("relay: accept: %w", err)
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.conns_.Add(1)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves until the collector is
// closed. It returns the bound address on a channel-free path by
// binding synchronously before serving.
func (c *Collector) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("relay: listen %s: %w", addr, err)
	}
	return c.Serve(ln)
}

// Close stops serving: every registered listener and live connection is
// closed and in-flight handlers are awaited. Dedup and stats state is
// retained — Serve may be called again and reconnecting farms resume
// where their acks left off. Close only affects listeners Serve has
// already registered: when re-arming, wait for Stats().Listeners to
// reflect the new Serve before a subsequent Close (a Close racing a
// just-started Serve leaves that listener running).
func (c *Collector) Close() error {
	c.mu.Lock()
	c.closed = true
	for ln := range c.lns {
		ln.Close()
	}
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return c.Err()
}

// Err returns the first sink delivery error observed so far.
func (c *Collector) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

func (c *Collector) noteErr(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
}

func (c *Collector) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

func (c *Collector) farm(name string) *farmState {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs, ok := c.farms[name]
	if !ok {
		fs = &farmState{}
		c.farms[name] = fs
	}
	return fs
}

// handle runs one authenticated connection to completion.
func (c *Collector) handle(conn net.Conn) {
	defer conn.Close()

	// Authentication: one frame, bounded wait, constant-time compare,
	// silent close on failure.
	_ = conn.SetReadDeadline(time.Now().Add(DefaultHelloTimeout))
	body, err := wire.ReadFrame(conn, maxHelloFrame)
	if err != nil {
		c.authFails.Add(1)
		return
	}
	token, farm, epoch, err := decodeHello(body)
	if err != nil || subtle.ConstantTimeCompare([]byte(token), []byte(c.opts.Token)) != 1 {
		c.authFails.Add(1)
		c.logf("relay: %s: rejected hello", conn.RemoteAddr())
		return
	}
	c.auths.Add(1)
	fs := c.farm(farm)
	fs.mu.Lock()
	fs.hello(epoch)
	fs.mu.Unlock()

	for {
		// An authenticated peer must keep talking: a half-open or dead
		// link would otherwise pin this handler (and its conns entry)
		// until Close.
		_ = conn.SetReadDeadline(time.Now().Add(c.opts.IdleTimeout))
		body, err := wire.ReadFrame(conn, DefaultMaxFrame)
		if err != nil {
			return // EOF / reset / idle: the forwarder reconnects and retransmits
		}
		c.wireBytes.Add(uint64(4 + len(body)))
		seq, events, rawLen, err := DecodeBatch(body)
		if err != nil {
			// Frame-level corruption past auth is either a version skew
			// or an attack; drop the connection rather than resyncing.
			c.badFrames.Add(1)
			c.logf("relay: %s (%s): bad frame: %v", conn.RemoteAddr(), farm, err)
			return
		}
		c.rawBytes.Add(uint64(rawLen))

		fs.mu.Lock()
		switch fs.admit(epoch, seq) {
		case admitSuperseded:
			// A newer session of this farm has announced itself while
			// this connection was still draining; its sequence space
			// superseded ours, so nothing here can be deduped safely.
			fs.mu.Unlock()
			c.logf("relay: %s (%s): superseded by a newer session, dropping", conn.RemoteAddr(), farm)
			return
		case admitDuplicate:
			fs.dupFrames++
			fs.dupEvents += uint64(len(events))
			c.dupFrames.Add(1)
			c.dupEvents.Add(uint64(len(events)))
		case admitFresh:
			// Sinks that journal provenance (a WAL-backed evstore) get
			// the batch's source tag, so a collector restart can rebuild
			// its dedup marks from the journal.
			accepted, err := c.fan.Deliver(events, EncodeSourceTag(farm, epoch, seq))
			if err != nil {
				c.noteErr(fmt.Errorf("relay: sink %w", err))
			}
			if !accepted {
				// Every sink refused the batch: acking now would tell the
				// forwarder the events are safe when they are gone. Leave
				// the high-water mark alone and drop the connection so
				// the forwarder's retransmit retries once the sinks
				// recover. (A partial failure is acked — the healthy
				// sinks have the events and a retry would double-ingest
				// them — and surfaces per sink in Stats and via Err.)
				fs.mu.Unlock()
				c.logf("relay: %s (%s): all sinks failed for seq %d, dropping connection for retry", conn.RemoteAddr(), farm, seq)
				return
			}
			fs.last = seq
			fs.frames++
			fs.events += uint64(len(events))
			c.frames.Add(1)
			c.events.Add(uint64(len(events)))
		}
		fs.mu.Unlock()

		// Ack after ingest: an unacked frame is by definition not yet in
		// the sinks, so the forwarder's retransmit can never lose data —
		// only produce a dup the sequence check absorbs. An ack means
		// "handed to at least one sink", not "durably stored".
		_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
		if err := wire.WriteFrame(conn, encodeAck(seq)); err != nil {
			return
		}
	}
}

// EncodeSourceTag packs a batch's provenance — farm name, epoch,
// sequence — into the opaque annotation a durable sink journals
// alongside the batch. A restarted collector replays its journal,
// decodes the tags and passes the resulting high-water marks back via
// CollectorOptions.Farms.
func EncodeSourceTag(farm string, epoch, seq uint64) []byte {
	w := wire.NewWriter(18 + len(farm))
	putString16(w, farm)
	w.Uint64LE(epoch)
	w.Uint64LE(seq)
	return w.Bytes()
}

// DecodeSourceTag unpacks a tag written by EncodeSourceTag. ok is false
// for tags this package did not produce (including nil — batches can
// enter a journalled store without passing through the relay).
func DecodeSourceTag(tag []byte) (farm string, epoch, seq uint64, ok bool) {
	r := wire.NewReader(tag)
	farm, err := getString16(r)
	if err != nil || farm == "" {
		return "", 0, 0, false
	}
	if epoch, err = r.Uint64LE(); err != nil {
		return "", 0, 0, false
	}
	if seq, err = r.Uint64LE(); err != nil {
		return "", 0, 0, false
	}
	if r.Len() != 0 {
		return "", 0, 0, false
	}
	return farm, epoch, seq, true
}

// FarmStats is the per-farm slice of CollectorStats.
type FarmStats struct {
	Name      string
	Epoch     uint64 // epoch of the sequence space the mark belongs to
	LastSeq   uint64 // highest ingested sequence within Epoch
	Frames    uint64
	Events    uint64
	DupFrames uint64
	DupEvents uint64
}

// CollectorStats is a point-in-time snapshot of collector counters.
// Events counts each (farm, sequence) exactly once; retransmitted
// duplicates are visible separately.
type CollectorStats struct {
	Conns        uint64 // accepted connections
	Active       int    // currently open
	Listeners    int    // listeners currently registered by Serve
	Auths        uint64 // connections that passed the token check
	AuthFailures uint64
	BadFrames    uint64

	Frames    uint64
	Events    uint64 // deduplicated ingested events
	DupFrames uint64
	DupEvents uint64
	WireBytes uint64
	RawBytes  uint64

	SinkErrors uint64           // sum of Sinks' Errors
	Sinks      []core.SinkStats // per-sink delivery counters, in registration order
	Farms      []FarmStats      // sorted by name
}

// CompressionRatio is RawBytes/WireBytes received: below 1 for frames
// of stored blocks, above 1 for deflated frames from older farms.
func (s CollectorStats) CompressionRatio() float64 {
	if s.WireBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.WireBytes)
}

// String renders the snapshot as one operational log line.
func (s CollectorStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "collector: conns=%d/%d ingested=%dev/%dfr dup=%dev ratio=%.2f",
		s.Active, s.Conns, s.Events, s.Frames, s.DupEvents, s.CompressionRatio())
	if s.AuthFailures > 0 || s.BadFrames > 0 {
		fmt.Fprintf(&sb, " rejected[auth=%d frames=%d]", s.AuthFailures, s.BadFrames)
	}
	for _, f := range s.Farms {
		fmt.Fprintf(&sb, " | %s: seq=%d %dev", f.Name, f.LastSeq, f.Events)
	}
	return sb.String()
}

// Stats snapshots the counters. Safe to call concurrently with serving.
func (c *Collector) Stats() CollectorStats {
	st := CollectorStats{
		Conns:        c.conns_.Load(),
		Auths:        c.auths.Load(),
		AuthFailures: c.authFails.Load(),
		BadFrames:    c.badFrames.Load(),
		Frames:       c.frames.Load(),
		Events:       c.events.Load(),
		DupFrames:    c.dupFrames.Load(),
		DupEvents:    c.dupEvents.Load(),
		WireBytes:    c.wireBytes.Load(),
		RawBytes:     c.rawBytes.Load(),
		Sinks:        c.fan.Stats(),
	}
	for _, sk := range st.Sinks {
		st.SinkErrors += sk.Errors
	}
	c.mu.Lock()
	st.Active = len(c.conns)
	st.Listeners = len(c.lns)
	for name, fs := range c.farms {
		fs.mu.Lock()
		st.Farms = append(st.Farms, FarmStats{
			Name: name, Epoch: fs.epoch, LastSeq: fs.last,
			Frames: fs.frames, Events: fs.events,
			DupFrames: fs.dupFrames, DupEvents: fs.dupEvents,
		})
		fs.mu.Unlock()
	}
	c.mu.Unlock()
	sort.Slice(st.Farms, func(i, j int) bool { return st.Farms[i].Name < st.Farms[j].Name })
	return st
}
