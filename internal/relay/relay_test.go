package relay

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
	"decoydb/internal/hptest"
	"decoydb/internal/wire"
)

// testEvent builds a representative event with every field populated so
// codec tests exercise the full schema.
func testEvent(i int) core.Event {
	return core.Event{
		Time: time.Unix(1700000000+int64(i), int64(i)*1001).UTC(),
		Src:  netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)}), uint16(40000+i%1000)),
		Honeypot: core.Info{
			DBMS: core.MySQL, Level: core.Low, Port: 3306,
			Instance: i % 7, Config: core.ConfigDefault, Group: core.GroupMulti,
			VM: "vm-1", Region: "eu",
		},
		Kind:    core.EventLogin,
		User:    fmt.Sprintf("user%d", i),
		Pass:    fmt.Sprintf("pass%d", i),
		OK:      i%3 == 0,
		Command: "SHOW DATABASES",
		Raw:     "\x16\x03\x01 raw bytes",
	}
}

func testEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = testEvent(i)
	}
	return evs
}

// memSink is a thread-safe in-memory BatchSink for collector tests.
type memSink struct {
	mu     sync.Mutex
	events []core.Event
}

func (m *memSink) Record(e core.Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

func (m *memSink) RecordBatch(events []core.Event) error {
	m.mu.Lock()
	m.events = append(m.events, events...)
	m.mu.Unlock()
	return nil
}

func (m *memSink) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

func (m *memSink) snapshot() []core.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]core.Event, len(m.events))
	copy(out, m.events)
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	in := testEvents(100)
	body, rawLen := EncodeBatch(42, in)
	if rawLen <= 0 {
		t.Fatalf("rawLen = %d, want > 0", rawLen)
	}
	// A farm built before frames carried stored blocks deflates them; a
	// collector must still read its frames, or a mixed-version tier
	// would need a wire-version bump.
	deflated := deflatedBatch(t, 42, in)
	if len(deflated) >= len(body) {
		t.Fatalf("deflated frame is %d bytes, stored %d: it must be compressed", len(deflated), len(body))
	}
	for name, body := range map[string][]byte{"stored": body, "deflated": deflated} {
		seq, out, gotRaw, err := DecodeBatch(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seq != 42 {
			t.Fatalf("%s: seq = %d, want 42", name, seq)
		}
		if gotRaw != rawLen {
			t.Fatalf("%s: rawLen = %d, want %d", name, gotRaw, rawLen)
		}
		if len(out) != len(in) {
			t.Fatalf("%s: decoded %d events, want %d", name, len(out), len(in))
		}
		for i := range in {
			if !in[i].Time.Equal(out[i].Time) {
				t.Fatalf("%s: event %d time: %v != %v", name, i, out[i].Time, in[i].Time)
			}
			a, b := in[i], out[i]
			a.Time, b.Time = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("%s: event %d round trip mismatch:\n in: %+v\nout: %+v", name, i, in[i], out[i])
			}
		}
	}
}

// deflatedBatch frames events as a farm built before frames carried
// stored blocks did: the payload a fresh flate.BestSpeed writer wrote.
func deflatedBatch(t *testing.T, seq uint64, events []core.Event) []byte {
	t.Helper()
	p := evcodec.Compress(events)
	defer p.Release()
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(p.Comp)))
	if err != nil {
		t.Fatal(err)
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return batchFrame(seq, evcodec.Payload{Comp: comp.Bytes(), RawLen: len(raw), Count: len(events), CRC: crc32.ChecksumIEEE(comp.Bytes())})
}

func TestBatchRejectsCorruption(t *testing.T) {
	body, _ := EncodeBatch(1, testEvents(10))

	// Flip one byte in the payload: the CRC must catch it before
	// inflation.
	bad := append([]byte(nil), body...)
	bad[len(bad)-1] ^= 0xff
	if _, _, _, err := DecodeBatch(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload: err = %v, want ErrChecksum", err)
	}

	// Wrong magic and wrong version are refused outright.
	bad = append([]byte(nil), body...)
	bad[0] ^= 0xff
	if _, _, _, err := DecodeBatch(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: err = %v, want ErrBadFrame", err)
	}
	bad = append([]byte(nil), body...)
	bad[4] = Version + 1
	if _, _, _, err := DecodeBatch(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: err = %v, want ErrBadVersion", err)
	}

	// Truncation anywhere must error, never panic.
	for n := 0; n < len(body); n++ {
		if _, _, _, err := DecodeBatch(body[:n]); err == nil {
			t.Fatalf("truncated to %d bytes: decoded successfully", n)
		}
	}
}

func TestBatchHonoursLimits(t *testing.T) {
	body, _ := EncodeBatch(1, testEvents(100))
	// The batch body follows the 6-byte relay header: seq (8), event
	// count (4), raw size (4). The payload CRC does not cover them.
	declare := func(off int, v uint32) []byte {
		b := bytes.Clone(body)
		binary.LittleEndian.PutUint32(b[6+off:], v)
		return b
	}
	if _, _, _, err := DecodeBatch(declare(8, evcodec.DefaultMaxEvents+1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("over DefaultMaxEvents: err = %v, want ErrBadFrame", err)
	}
	if _, _, _, err := DecodeBatch(declare(12, evcodec.DefaultMaxRaw+1)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("over DefaultMaxRaw: err = %v, want wire.ErrFrameTooLarge", err)
	}
	if _, _, _, err := DecodeBatch(body); err != nil {
		t.Fatalf("within the limits: %v", err)
	}
}

// startCollector binds a loopback listener and serves coll on it.
func startCollector(t *testing.T, coll *Collector) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coll.Serve(ln) }()
	// Wait for Serve to register the listener: a Close racing a
	// just-started Serve leaves the listener running (see Close docs).
	waitFor(t, 5*time.Second, func() bool { return coll.Stats().Listeners > 0 }, "collector serving")
	return ln.Addr().String(), func() {
		coll.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestForwardDelivery(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "s3cret"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	fwd, err := NewForwardSink(ForwardOptions{Addrs: []string{addr}, Token: "s3cret", Farm: "farm-a", FrameEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	in := testEvents(500)
	for i := 0; i < len(in); i += 50 {
		if err := fwd.RecordBatch(in[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sink.len(); got != len(in) {
		t.Fatalf("collector ingested %d events, want %d", got, len(in))
	}
	out := sink.snapshot()
	for i := range in {
		if out[i].User != in[i].User || out[i].Src != in[i].Src {
			t.Fatalf("event %d out of order or corrupted: %+v", i, out[i])
		}
	}

	fst := fwd.Stats()
	if fst.EventsAcked != uint64(len(in)) || fst.Shed != 0 {
		t.Fatalf("forwarder stats: acked=%d shed=%d, want %d/0", fst.EventsAcked, fst.Shed, len(in))
	}
	if fst.Enqueued != fst.EventsAcked+uint64(fst.SpoolEvents)+uint64(fst.Pending) {
		t.Fatalf("accounting broken: %+v", fst)
	}
	cst := coll.Stats()
	if cst.Events != uint64(len(in)) || cst.AuthFailures != 0 {
		t.Fatalf("collector stats: %+v", cst)
	}
	if cst.WireBytes != fst.WireBytes || cst.RawBytes != fst.RawBytes {
		t.Fatalf("collector read %d wire / %d raw bytes, forwarder framed %d / %d",
			cst.WireBytes, cst.RawBytes, fst.WireBytes, fst.RawBytes)
	}
	if len(cst.Farms) != 1 || cst.Farms[0].Name != "farm-a" {
		t.Fatalf("farms: %+v", cst.Farms)
	}
}

// TestForwardLingerBatchesPartialFrames records 400 one-event batches,
// due 250 µs apart, into a connected forwarder. Cutting a partial frame
// for every batch the writer catches up on ships hundreds of frames;
// with at most one partial frame per frameLinger the 100 ms of arrivals
// fit in about 20. A slow runner delays arrivals into bunches,
// which only makes frames larger. The tail is left for the linger
// timer to cut: no Flush.
func TestForwardLingerBatchesPartialFrames(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	fwd, err := NewForwardSink(ForwardOptions{Addrs: []string{addr}, Token: "tok", Farm: "linger"})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	const n, spacing = 400, 250 * time.Microsecond
	start := time.Now()
	for i, e := range testEvents(n) {
		if d := time.Until(start.Add(time.Duration(i) * spacing)); d > 0 {
			time.Sleep(d)
		}
		if err := fwd.RecordBatch([]core.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return fwd.Stats().EventsAcked == n }, "every event acked")

	seen := map[string]int{}
	for _, e := range sink.snapshot() {
		seen[e.User]++
	}
	for _, e := range testEvents(n) {
		if seen[e.User] != 1 {
			t.Fatalf("event %s ingested %d times, want once", e.User, seen[e.User])
		}
	}
	st := fwd.Stats()
	if st.EventsAcked != n || st.Pending != 0 || st.SpoolEvents != 0 {
		t.Fatalf("acked %d, pending %d, spooled %d; want %d/0/0", st.EventsAcked, st.Pending, st.SpoolEvents, n)
	}
	if st.Frames > n/4 {
		t.Fatalf("%d one-event batches shipped in %d frames, want at most %d", n, st.Frames, n/4)
	}
}

// TestFlushShipsLoneEvent: Flush cuts a lone pending event at once and
// returns once it is acked, the second time while the linger of the
// first event's frame may still hold.
func TestFlushShipsLoneEvent(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	fwd, err := NewForwardSink(ForwardOptions{Addrs: []string{addr}, Token: "tok", Farm: "lone"})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	for i := 1; i <= 2; i++ {
		if err := fwd.RecordBatch([]core.Event{testEvent(i)}); err != nil {
			t.Fatal(err)
		}
		fwd.Flush()
		st := fwd.Stats()
		if st.Pending != 0 || st.SpoolEvents != 0 || st.EventsAcked != uint64(i) {
			t.Fatalf("Flush after event %d returned with %d pending, %d spooled, %d acked; want 0/0/%d",
				i, st.Pending, st.SpoolEvents, st.EventsAcked, i)
		}
	}
	if got := sink.len(); got != 2 {
		t.Fatalf("collector ingested %d events, want 2", got)
	}
}

func TestCollectorRejectsBadToken(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "right"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "wrong", Farm: "rogue",
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	if err := fwd.RecordBatch(testEvents(4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return coll.Stats().AuthFailures >= 1 }, "auth failure")
	if got := sink.len(); got != 0 {
		t.Fatalf("unauthenticated forwarder delivered %d events", got)
	}

	// Raw garbage on the port must also be counted and cut, not crash.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x00, 0x00, 0x00, 0x04, 0xde, 0xad, 0xbe, 0xef})
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return coll.Stats().AuthFailures >= 2 }, "garbage rejection")
}

// TestCollectorCapsHelloRead pins the HELLO read cap: a peer that has
// not authenticated declares a frame longer than the largest valid
// HELLO and is cut at once, without the collector allocating the
// declared length or waiting DefaultHelloTimeout for the bytes.
func TestCollectorCapsHelloRead(t *testing.T) {
	if got := len(encodeHello(strings.Repeat("t", MaxName), strings.Repeat("f", MaxName), 1)); got != maxHelloFrame {
		t.Fatalf("largest HELLO is %d bytes, cap is %d", got, maxHelloFrame)
	}
	if got := len(encodeAck(1)); got != maxAckFrame {
		t.Fatalf("ACK is %d bytes, cap is %d", got, maxAckFrame)
	}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, &memSink{})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	for i, declared := range []uint32{maxHelloFrame + 1, DefaultMaxFrame} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		prefix := []byte{byte(declared >> 24), byte(declared >> 16), byte(declared >> 8), byte(declared)}
		if _, err := conn.Write(prefix); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(DefaultHelloTimeout))
		if n, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("collector answered a %d-byte HELLO prefix with %d bytes", declared, n)
		}
		conn.Close()
		if took := time.Since(start); took > DefaultHelloTimeout/4 {
			t.Fatalf("a %d-byte HELLO prefix held the connection for %v", declared, took)
		}
		waitFor(t, time.Second, func() bool { return coll.Stats().AuthFailures == uint64(i+1) }, "oversized HELLO counted")
	}
}

// TestCollectorBoundsBatchRead: an authenticated peer that declares a
// DefaultMaxFrame batch and then hangs up costs the collector the wire
// reader's read-ahead, not the 4 MiB the prefix declares.
func TestCollectorBoundsBatchRead(t *testing.T) {
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, &memSink{})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, encodeHello("tok", "farm", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return coll.Stats().Auths == 1 }, "hello accepted")
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hptest.CheckBareHeader(t, func() error {
		if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, DefaultMaxFrame)); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		// The collector hangs up once its read of the batch fails.
		_, err := conn.Read(make([]byte, 1))
		if !errors.Is(err, io.EOF) {
			t.Fatalf("collector answered a bare batch prefix: %v, want EOF", err)
		}
		return err
	})
}

func TestForwardShedsWhenDown(t *testing.T) {
	// No collector at all: a spool with room for two frames must fill,
	// then shed with per-source attribution, without ever blocking
	// RecordBatch.
	body, _ := EncodeBatch(1, testEvents(8))
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{"127.0.0.1:1"}, Token: "t", Farm: "dark",
		FrameEvents: 8, SpoolBytes: 2 * (int64(len(body)) + 4 + spoolFrameOverhead),
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			fwd.RecordBatch(testEvents(8))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RecordBatch blocked with a full spool and Block unset")
	}

	st := fwd.Stats()
	if st.Shed == 0 || st.SpoolFrames != 2 {
		t.Fatalf("spool of 2 frames: %d spooled, %d shed: %+v", st.SpoolFrames, st.Shed, st)
	}
	offered := uint64(40 * 8)
	if st.Enqueued+st.Shed != offered {
		t.Fatalf("offered accounting: enqueued %d + shed %d != %d", st.Enqueued, st.Shed, offered)
	}
	if st.Enqueued != st.EventsAcked+uint64(st.SpoolEvents)+uint64(st.Pending) {
		t.Fatalf("enqueued accounting broken: %+v", st)
	}
	var attributed uint64
	for _, s := range st.Shedders {
		attributed += s.Shed
	}
	if attributed+st.ShedUnattributed != st.Shed && len(st.Shedders) == core.TopShedders {
		// Top-K may truncate; only the untruncated case must balance.
		t.Logf("shedders truncated to top %d", len(st.Shedders))
	} else if len(st.Shedders) < core.TopShedders && attributed+st.ShedUnattributed != st.Shed {
		t.Fatalf("shed attribution: %d attributed + %d unattributed != %d shed",
			attributed, st.ShedUnattributed, st.Shed)
	}
}

// TestForwardSpoolsOneEventFrames: frames as small as one event are
// bounded by the byte budget alone, so many of them fit a budget that
// holds them and none is shed.
func TestForwardSpoolsOneEventFrames(t *testing.T) {
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{"127.0.0.1:1"}, Token: "t", Farm: "dark",
		FrameEvents: 1, SpoolBytes: 1 << 20,
		MinBackoff: time.Second, MaxBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	const n = 2000
	for _, e := range testEvents(n) {
		fwd.RecordBatch([]core.Event{e})
	}
	st := fwd.Stats()
	if st.Shed != 0 || st.SpoolFrames != n || st.SpoolEvents != n {
		t.Fatalf("spooled %d frames / %d events, shed %d; want all %d spooled", st.SpoolFrames, st.SpoolEvents, st.Shed, n)
	}
	if mem := st.SpoolBytes + n*spoolFrameOverhead; mem >= 1<<20 {
		t.Fatalf("%d frames charge %d bytes, past the 1 MiB budget the test assumes", n, mem)
	}
}

// TestForwardShedAttributionKeepsCurrentShedders: the shed-attribution
// table is an LRU. A source that stops shedding is evicted with its
// count moved to ShedUnattributed, a source shedding now is attributed
// even after DefaultMaxShedSources others, and Shed stays exact.
func TestForwardShedAttributionKeepsCurrentShedders(t *testing.T) {
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{"127.0.0.1:1"}, Token: "t", Farm: "dark",
		FrameEvents: 1, SpoolBytes: 1,
		MinBackoff: time.Second, MaxBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	at := func(a netip.Addr) core.Event {
		e := testEvent(0)
		e.Src = netip.AddrPortFrom(a, 40000)
		return e
	}
	filler := at(netip.MustParseAddr("198.51.100.1")) // fills the one-frame spool
	quiet := netip.MustParseAddr("198.51.100.2")
	heavy := netip.MustParseAddr("198.51.100.3")
	events := []core.Event{filler, at(quiet), at(quiet), at(quiet)}
	for i := 0; i < DefaultMaxShedSources; i++ {
		events = append(events, at(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})))
	}
	for i := 0; i < 5; i++ {
		events = append(events, at(heavy))
	}
	fwd.RecordBatch(events)

	st := fwd.Stats()
	if st.Enqueued != 1 || st.Shed != uint64(len(events)-1) {
		t.Fatalf("enqueued %d shed %d, want 1 and %d", st.Enqueued, st.Shed, len(events)-1)
	}
	// quiet's 3 went when the table filled; heavy then evicted the
	// first of the one-event sources.
	if st.ShedUnattributed != 3+1 {
		t.Fatalf("unattributed = %d, want quiet's 3 + one evicted source's 1", st.ShedUnattributed)
	}
	if len(st.Shedders) == 0 || st.Shedders[0] != (core.SourceShed{Addr: heavy, Shed: 5}) {
		t.Fatalf("shedders = %v, want %s=5 first", st.Shedders, heavy)
	}
	for _, sd := range st.Shedders {
		if sd.Addr == quiet {
			t.Fatalf("evicted source %s still attributed", quiet)
		}
	}
}

func TestCollectorRestartDedups(t *testing.T) {
	// Kill the collector mid-stream, restart it on the same address, and
	// verify the retransmit protocol delivers every event exactly once.
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- coll.Serve(ln) }()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "farm-r", FrameEvents: 8,
		MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 600
	in := testEvents(total)
	half := total / 2
	if err := fwd.RecordBatch(in[:half]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() >= half/2 }, "first half partially delivered")

	// Kill: connections drop; the forwarder keeps unacked frames spooled.
	coll.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := fwd.RecordBatch(in[half:]); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address with the same dedup state.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- coll.Serve(ln2) }()
	// The final Close only stops listeners Serve has registered; wait
	// for the re-arm to be visible before draining and shutting down.
	waitFor(t, 5*time.Second, func() bool { return coll.Stats().Listeners > 0 }, "listener re-registered")

	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	coll.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Exact accounting: recorded = ingested + spooled + shed.
	fst := fwd.Stats()
	cst := coll.Stats()
	if fst.Shed != 0 {
		t.Fatalf("unexpected shedding: %+v", fst)
	}
	got := cst.Events + uint64(fst.SpoolEvents) + uint64(fst.Pending)
	if got != total {
		t.Fatalf("accounting: ingested %d + spooled %d + pending %d = %d, want %d",
			cst.Events, fst.SpoolEvents, fst.Pending, got, total)
	}
	if sink.len() != int(cst.Events) {
		t.Fatalf("sink has %d events, collector counted %d", sink.len(), cst.Events)
	}
	// No duplicates in the sink despite retransmits.
	seen := make(map[string]bool, total)
	for _, e := range sink.snapshot() {
		if seen[e.User] {
			t.Fatalf("event %q delivered twice", e.User)
		}
		seen[e.User] = true
	}
	if fst.Reconnects == 0 {
		t.Fatalf("expected at least one reconnect: %+v", fst)
	}
}

func TestFarmRestartResumesIngest(t *testing.T) {
	// A restarted farm process without a spool restarts its sequence
	// numbering at 1 under a fresh epoch, announced in HELLO, so the new
	// process's batches must be ingested — not classified as duplicates
	// of the old process's high-water mark and silently dropped.
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	forwardAll(t, addr, "", 0, 100)   // first process, sequences 1..25
	forwardAll(t, addr, "", 1000, 60) // restarted process, sequences restart at 1
	if got := sink.len(); got != 160 {
		t.Fatalf("collector ingested %d events across restart, want 160", got)
	}
	cst := coll.Stats()
	if cst.DupEvents != 0 {
		t.Fatalf("restart misread as duplicates: %+v", cst)
	}
	if len(cst.Farms) != 1 || cst.Farms[0].Epoch == 0 {
		t.Fatalf("farm epoch not tracked: %+v", cst.Farms)
	}
}

func TestRejectsOverlongNames(t *testing.T) {
	long := strings.Repeat("a", MaxName+1)
	if _, err := NewForwardSink(ForwardOptions{Addrs: []string{"x:1"}, Token: long}); err == nil {
		t.Fatal("overlong token accepted by NewForwardSink; it would be truncated on the wire and never authenticate")
	}
	if _, err := NewForwardSink(ForwardOptions{Addrs: []string{"x:1"}, Token: "t", Farm: long}); err == nil {
		t.Fatal("overlong farm name accepted by NewForwardSink")
	}
	if _, err := NewCollector(CollectorOptions{Token: long}, &memSink{}); err == nil {
		t.Fatal("overlong token accepted by NewCollector")
	}
}

func TestOversizedBatchSplitAndShed(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "big",
		FrameEvents: 16,
		MinBackoff:  time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 16 events of 512 KiB encode to 8 MiB in one cut, past
	// DefaultMaxFrame: the forwarder must split the batch rather than
	// spool a frame the collector would reject.
	big := make([]core.Event, 16)
	raw := strings.Repeat("x", 512<<10)
	for i := range big {
		big[i] = testEvent(i)
		big[i].Raw = raw
	}
	if err := fwd.RecordBatch(big); err != nil {
		t.Fatal(err)
	}
	// One event that cannot fit a frame alone — four strings of
	// evcodec.MaxString — is shed with attribution instead of poisoning
	// the spool head.
	huge := testEvent(99)
	long := strings.Repeat("y", evcodec.MaxString)
	huge.User, huge.Pass, huge.Command, huge.Raw = long, long, long, long
	if err := fwd.RecordBatch([]core.Event{huge}); err != nil {
		t.Fatal(err)
	}
	fwd.Flush()

	if got := sink.len(); got != len(big) {
		t.Fatalf("collector ingested %d events, want %d (split frames delivered, oversized event shed)", got, len(big))
	}
	st := fwd.Stats()
	if st.Shed != 1 || st.DroppedFrames != 0 {
		t.Fatalf("stats: shed=%d dropped=%d, want 1/0: %+v", st.Shed, st.DroppedFrames, st)
	}
	if st.Frames < 2 {
		t.Fatalf("oversized batch not split: %d frames", st.Frames)
	}
	if st.Enqueued != st.EventsAcked+uint64(st.SpoolEvents)+uint64(st.Pending) {
		t.Fatalf("accounting broken: %+v", st)
	}
	if err := fwd.Close(); err == nil {
		t.Fatal("shedding an un-shippable event must surface via Err/Close")
	}
}

// poisonRaw marks the events of a frame that startCorruptingProxy
// corrupts on its way to the collector.
var poisonRaw = strings.Repeat("p", 700)

// poisonEvents returns a frame's worth of events carrying poisonRaw.
func poisonEvents() []core.Event {
	poison := testEvents(4)
	for i := range poison {
		poison[i].Raw = poisonRaw
	}
	return poison
}

// startCorruptingProxy relays each forwarder connection to addr frame by
// frame, flipping the last byte of every frame that carries poisonRaw,
// and copies the collector's replies back. The collector rejects such a
// frame at its payload CRC check and drops the connection; the proxy
// then drops the forwarder's side too, as a direct connection would
// have been dropped.
func startCorruptingProxy(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
	)
	// track hands connections to the cleanup below, or closes them at
	// once if it has already run.
	track := func(cs ...net.Conn) {
		mu.Lock()
		defer mu.Unlock()
		if !closed {
			conns = append(conns, cs...)
			return
		}
		for _, c := range cs {
			c.Close()
		}
	}
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				continue
			}
			track(down, up)
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(down, up)
				down.Close()
			}()
			go func() {
				defer wg.Done()
				defer up.Close()
				for {
					body, err := wire.ReadFrame(down, DefaultMaxFrame)
					if err != nil {
						return
					}
					if bytes.Contains(body, []byte(poisonRaw)) {
						body[len(body)-1] ^= 0xff
					}
					if err := wire.WriteFrame(up, body); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestPoisonFrameDroppedAfterRetries(t *testing.T) {
	// A frame the collector rejects drops the connection; the forwarder
	// must give up on the rejected frame at the retry cap — with the
	// loss accounted — rather than retransmit it forever while the spool
	// backs up behind it. A proxy corrupts the poison frame on every
	// attempt, so the collector rejects it each time.
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{startCorruptingProxy(t, addr)}, Token: "tok", Farm: "skew",
		FrameEvents: 4,
		MinBackoff:  time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	poison := poisonEvents()
	if err := fwd.RecordBatch(poison); err != nil {
		t.Fatal(err)
	}
	good := testEvents(4)
	if err := fwd.RecordBatch(good); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, func() bool { return sink.len() == len(good) }, "good frame delivered once the poison frame is dropped")
	st := fwd.Stats()
	if st.DroppedFrames != 1 || st.Shed != uint64(len(poison)) {
		t.Fatalf("stats: dropped=%d shed=%d, want 1/%d: %+v", st.DroppedFrames, st.Shed, len(poison), st)
	}
	if st.Enqueued != st.EventsAcked+uint64(st.SpoolEvents)+uint64(st.Pending) {
		t.Fatalf("accounting broken: %+v", st)
	}
	if coll.Stats().BadFrames == 0 {
		t.Fatal("collector never rejected the poison frame")
	}
	if err := fwd.Close(); err == nil {
		t.Fatal("dropping a frame must surface via Err/Close")
	}
}

func TestIdleConnectionDropped(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok", IdleTimeout: 50 * time.Millisecond}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	fwd, err := NewForwardSink(ForwardOptions{Addrs: []string{addr}, Token: "tok", Farm: "quiet"})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	if err := fwd.RecordBatch(testEvents(3)); err != nil {
		t.Fatal(err)
	}
	fwd.Flush()
	waitFor(t, 2*time.Second, func() bool { return sink.len() == 3 }, "delivery")

	// The farm now goes silent: the collector must reap the connection
	// instead of pinning its handler goroutine and Active slot forever.
	waitFor(t, 2*time.Second, func() bool { return coll.Stats().Active == 0 }, "idle connection reaped")
	waitFor(t, 2*time.Second, func() bool { return !fwd.Stats().Connected }, "forwarder observed the cut")
}

// flakySink fails its first `failures` batches, then ingests normally.
type flakySink struct {
	mu       sync.Mutex
	failures int
	events   []core.Event
}

func (s *flakySink) Record(e core.Event) { _ = s.RecordBatch([]core.Event{e}) }

func (s *flakySink) RecordBatch(events []core.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failures > 0 {
		s.failures--
		return errors.New("sink down")
	}
	s.events = append(s.events, events...)
	return nil
}

func (s *flakySink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

func TestAllSinksFailingDefersAck(t *testing.T) {
	// When every sink refuses a batch the collector must not ack it (an
	// ack means the events are safe); dropping the connection makes the
	// forwarder retransmit, so the batch lands exactly once after the
	// sinks recover.
	sink := &flakySink{failures: 2}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "flaky",
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.RecordBatch(testEvents(10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 10 }, "delivery after sink recovery")
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.len(); got != 10 {
		t.Fatalf("sink has %d events after retries, want exactly 10", got)
	}
	cst := coll.Stats()
	if cst.Events != 10 || cst.SinkErrors != 2 {
		t.Fatalf("collector stats: events=%d sinkErrors=%d, want 10/2: %+v", cst.Events, cst.SinkErrors, cst)
	}
	if coll.Err() == nil {
		t.Fatal("sink failures must surface via Err")
	}
}

func TestStatsString(t *testing.T) {
	var fs Stats
	fs.Farm = "f"
	if fs.String() == "" {
		t.Fatal("empty forwarder stats line")
	}
	var cs CollectorStats
	if cs.String() == "" {
		t.Fatal("empty collector stats line")
	}
}

// BenchmarkRelayThroughput measures end-to-end acked events/s over real
// loopback TCP: encode, frame, write, decode, dedup, ingest, ack.
func BenchmarkRelayThroughput(b *testing.B) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "bench"}, sink)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go coll.Serve(ln)
	defer coll.Close()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{ln.Addr().String()}, Token: "bench", Farm: "bench",
		Block: true, // measure delivered throughput, not shed throughput
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fwd.Close()

	const batch = 256
	events := testEvents(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fwd.RecordBatch(events); err != nil {
			b.Fatal(err)
		}
	}
	fwd.Flush()
	b.StopTimer()
	total := float64(b.N) * batch
	b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(fwd.Stats().CompressionRatio(), "ratio")
}
