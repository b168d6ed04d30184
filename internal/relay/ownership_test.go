package relay

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"decoydb/internal/wal"
)

// These tests cover durable frame ownership: the journaled (seq →
// endpoint address) pins that keep the tier-wide merge exactly-once
// across farm restarts and live endpoint-set reloads (SetEndpoints).

// flakySpool wraps a real WAL but fails the first failLeft Compact
// calls — the fault SpoolLog exists to inject.
type flakySpool struct {
	*wal.Log
	failLeft int
	compacts int
}

func (s *flakySpool) Compact(seq uint64) (int, error) {
	s.compacts++
	if s.failLeft > 0 {
		s.failLeft--
		return 0, errors.New("injected compact failure")
	}
	return s.Log.Compact(seq)
}

// reserveAddr picks a loopback address that is currently free: bind,
// read the address, close. A collector can later bind the same address
// to play a restarted or late-joining peer.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startCollectorAt is startCollector on a caller-chosen address, with a
// few retries in case the just-released port is briefly unavailable.
func startCollectorAt(t *testing.T, coll *Collector, addr string) (stop func()) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	done := make(chan error, 1)
	go func() { done <- coll.Serve(ln) }()
	waitFor(t, 5*time.Second, func() bool { return coll.Stats().Listeners > 0 }, "collector serving")
	return func() {
		coll.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestCompactRetryAfterFailure pins the lastCompact bookkeeping: a
// Compact that fails must NOT advance the floor, so the next ack at the
// same floor retries it — otherwise one bad fsync would silence
// compaction until the process restarted and fully-acked segments would
// pile up forever.
func TestCompactRetryAfterFailure(t *testing.T) {
	w := openSpool(t, filepath.Join(t.TempDir(), "spool"))
	defer w.Close()
	if _, err := w.Append(testEvents(4), nil); err != nil {
		t.Fatal(err)
	}
	fs := &flakySpool{Log: w, failLeft: 1}
	l := newLedger(ForwardOptions{SpoolWAL: fs}.withDefaults(), t.Logf)
	l.nextSeq = 1 // the one journaled frame is fully acked; floor = 1

	l.compact()
	if l.lastCompact != 0 {
		t.Fatalf("lastCompact advanced to %d over a failed Compact", l.lastCompact)
	}
	l.compact() // same floor: must retry, not be silenced

	if fs.compacts != 2 {
		t.Fatalf("Compact called %d times, want 2 (failure + retry)", fs.compacts)
	}
	if l.lastCompact != 1 {
		t.Fatalf("lastCompact = %d after successful retry, want 1", l.lastCompact)
	}
	if got := w.Mark(); got != 1 {
		t.Fatalf("spool mark = %d, want 1", got)
	}
	if l.firstErr == nil {
		t.Fatal("injected compact failure was not surfaced via Err")
	}
}

// TestCompactRetryEndToEnd is the wired version: a live forwarder whose
// spool WAL fails one Compact still converges to mark == LastSeq once a
// later ack retries.
func TestCompactRetryEndToEnd(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	w := openSpool(t, filepath.Join(t.TempDir(), "spool"))
	defer w.Close()
	fs := &flakySpool{Log: w, failLeft: 1}
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "flaky",
		SpoolWAL: fs, FrameEvents: 8,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	if err := fwd.RecordBatch(testEvents(8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return fwd.Stats().EventsAcked == 8 }, "first frame acked")
	if got := w.Mark(); got != 0 {
		t.Fatalf("mark = %d after the failed compact, want 0", got)
	}
	if err := fwd.RecordBatch(testEvents(16)[8:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return w.Mark() == w.LastSeq() && w.LastSeq() == 2 }, "compaction retried")
	if fs.compacts < 2 {
		t.Fatalf("Compact called %d times, want at least 2", fs.compacts)
	}
}

// TestRestartRetransmitsOnlyToOwner is the farm-restart half of the
// exactly-once contract: a restarted durable farm whose spool holds
// frames journaled as pinned to collector B must not replay them to
// collector A — even while B is down — because B may already hold the
// events with only the ack lost. Unowned frames and A's own frames
// flow to A immediately; B's frame waits, then drains when B returns.
func TestRestartRetransmitsOnlyToOwner(t *testing.T) {
	sinkA := &memSink{}
	collA, err := NewCollector(CollectorOptions{Token: "tok"}, sinkA)
	if err != nil {
		t.Fatal(err)
	}
	addrA, stopA := startCollector(t, collA)
	defer stopA()
	addrB := reserveAddr(t) // B is down; its address is journaled as an owner

	// Fabricate the crashed farm's spool: three frames, the first pinned
	// to A, the second pinned to B, the third cut but never written.
	dir := filepath.Join(t.TempDir(), "spool")
	evs := testEvents(24)
	w1 := openSpool(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := w1.Append(evs[i*8:(i+1)*8], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.AppendOwner(1, addrA); err != nil {
		t.Fatal(err)
	}
	if err := w1.AppendOwner(2, addrB); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh forwarder adopts the spool with B unreachable.
	w2 := openSpool(t, dir)
	defer w2.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addrA, addrB}, Token: "tok", Farm: "restart",
		SpoolWAL:   w2,
		MinBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		FailbackInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	// Frames 1 (owned by A) and 3 (unowned) reach A; frame 2 must not.
	// The collector hands a batch to its sinks before it writes the ack,
	// so wait for the acks too before reading the forwarder's spool.
	waitFor(t, 5*time.Second, func() bool { return sinkA.len() == 16 }, "A-owned and unowned frames delivered")
	waitFor(t, 5*time.Second, func() bool { return fwd.Stats().EventsAcked == 16 }, "A's acks")
	for _, e := range sinkA.snapshot() {
		if n := userNum(t, e.User); n >= 8 && n < 16 {
			t.Fatalf("frame pinned to %s was replayed to %s (event %s)", addrB, addrA, e.User)
		}
	}
	st := fwd.Stats()
	if st.SpoolFrames != 1 || st.SpoolEvents != 8 {
		t.Fatalf("spool holds %d frames / %d events, want B's 1/8", st.SpoolFrames, st.SpoolEvents)
	}
	if st.OrphanFrames != 0 {
		t.Fatalf("OrphanFrames = %d; B is in the endpoint set, its frame is pinned, not orphaned", st.OrphanFrames)
	}
	pinnedToB := 0
	for _, ep := range st.Endpoints {
		if ep.Addr == addrB {
			pinnedToB = ep.PinnedFrames
		}
	}
	if pinnedToB != 1 {
		t.Fatalf("PinnedFrames for %s = %d, want 1", addrB, pinnedToB)
	}

	// B comes back on its old address: the pinned frame drains to B and
	// only B, and the ack floor reaches the whole log.
	sinkB := &memSink{}
	collB, err := NewCollector(CollectorOptions{Token: "tok"}, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	stopB := startCollectorAt(t, collB, addrB)
	defer stopB()

	waitFor(t, 10*time.Second, func() bool { return sinkB.len() == 8 }, "B-owned frame delivered to B")
	for _, e := range sinkB.snapshot() {
		if n := userNum(t, e.User); n < 8 || n >= 16 {
			t.Fatalf("B received event %s outside its pinned frame", e.User)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return w2.Mark() == 3 }, "spool fully compacted")
	if got := sinkA.len(); got != 16 {
		t.Fatalf("A ended with %d events, want exactly 16", got)
	}
}

// TestOrphanedFramesWaitForSetEndpoints covers the re-rank half: a
// frame pinned to an address absent from the endpoint set is an orphan
// — reported in Stats, never retransmitted elsewhere — until a live
// SetEndpoints brings the owner back, at which point it drains to the
// owner without a restart.
func TestOrphanedFramesWaitForSetEndpoints(t *testing.T) {
	sinkA := &memSink{}
	collA, err := NewCollector(CollectorOptions{Token: "tok"}, sinkA)
	if err != nil {
		t.Fatal(err)
	}
	addrA, stopA := startCollector(t, collA)
	defer stopA()
	addrB := reserveAddr(t)

	dir := filepath.Join(t.TempDir(), "spool")
	evs := testEvents(16)
	w1 := openSpool(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := w1.Append(evs[i*8:(i+1)*8], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.AppendOwner(1, addrB); err != nil { // B not in Addrs below
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openSpool(t, dir)
	defer w2.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addrA}, Token: "tok", Farm: "rerank",
		SpoolWAL:   w2,
		MinBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		FailbackInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	waitFor(t, 5*time.Second, func() bool { return sinkA.len() == 8 }, "unowned frame delivered")
	for _, e := range sinkA.snapshot() {
		if n := userNum(t, e.User); n < 8 {
			t.Fatalf("orphaned frame leaked to %s (event %s)", addrA, e.User)
		}
	}
	if st := fwd.Stats(); st.OrphanFrames != 1 || st.Reloads != 0 {
		t.Fatalf("OrphanFrames=%d Reloads=%d, want 1/0", st.OrphanFrames, st.Reloads)
	}

	// Guard rails around the reload call itself.
	if err := fwd.SetEndpoints(nil); err == nil {
		t.Fatal("SetEndpoints(nil) did not error")
	}
	if err := fwd.SetEndpoints([]string{addrA}); err != nil {
		t.Fatalf("unchanged set errored: %v", err)
	}
	if st := fwd.Stats(); st.Reloads != 0 {
		t.Fatalf("unchanged SetEndpoints counted as a reload (Reloads=%d)", st.Reloads)
	}

	// The owner joins the tier live; its orphan drains to it and no one
	// else, and the endpoint metrics carry A's history across the swap.
	sinkB := &memSink{}
	collB, err := NewCollector(CollectorOptions{Token: "tok"}, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	stopB := startCollectorAt(t, collB, addrB)
	defer stopB()
	ackedByA := fwd.Stats().EventsAcked
	if err := fwd.SetEndpoints([]string{addrA, addrB}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sinkB.len() == 8 }, "orphan drained to returned owner")
	st := fwd.Stats()
	if st.Reloads != 1 {
		t.Fatalf("Reloads = %d, want 1", st.Reloads)
	}
	if st.OrphanFrames != 0 {
		t.Fatalf("OrphanFrames = %d after the owner returned, want 0", st.OrphanFrames)
	}
	var survivedA bool
	for _, ep := range st.Endpoints {
		if ep.Addr == addrA && ep.EventsAcked >= ackedByA {
			survivedA = true
		}
	}
	if !survivedA {
		t.Fatalf("endpoint counters for %s did not survive the reload: %+v", addrA, st.Endpoints)
	}
	if got := sinkA.len(); got != 8 {
		t.Fatalf("A ended with %d events, want exactly 8", got)
	}

	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fwd.SetEndpoints([]string{addrA}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("SetEndpoints on a closed sink: err = %v, want closed error", err)
	}
}

// userNum extracts the index from a testEvent user name ("user17" →
// 17), which encodes which fabricated frame an event belonged to.
func userNum(t *testing.T, user string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(user, "user%d", &n); err != nil {
		t.Fatalf("unexpected user %q: %v", user, err)
	}
	return n
}

// BenchmarkForwardReload prices the farm-restart path this file
// guards: NewForwardSink over a spool WAL holding 10k pinned frames
// must replay the batches, re-encode the wire bodies, and re-attach
// every journaled owner before the farm can resume. This is restart
// latency for a durable farm that died under a full spool — CI floors
// it so an accidental O(n²) in the reload (or a pin remap that walks
// the spool per owner record) shows up as a collapsed frames/s, not as
// a mysteriously slow recovery in production.
func BenchmarkForwardReload(b *testing.B) {
	const frames = 10000
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	// Two dead collectors: every reloaded frame is pinned to one of
	// them, so the reload exercises the owner re-attach path for the
	// whole spool and the write loop cannot drain anything mid-measure.
	deadA, deadB := reserve(), reserve()

	dir := b.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	evs := testEvents(4)
	for i := 0; i < frames; i++ {
		seq, err := w.Append(evs, nil)
		if err != nil {
			b.Fatal(err)
		}
		owner := deadA
		if i%2 == 1 {
			owner = deadB
		}
		if err := w.AppendOwner(seq, owner); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd, err := NewForwardSink(ForwardOptions{
			Addrs: []string{deadA, deadB}, Token: "bench", Farm: "reload-bench",
			SpoolWAL:   w,
			MinBackoff: time.Second, MaxBackoff: time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st := fwd.Stats(); st.SpoolFrames != frames || st.OrphanFrames != 0 {
			b.Fatalf("reloaded %d frames (%d orphans), want %d pinned frames", st.SpoolFrames, st.OrphanFrames, frames)
		}
		b.StopTimer()
		if err := fwd.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}
