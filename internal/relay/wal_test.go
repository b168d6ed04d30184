package relay

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wal"
)

// These tests cover the durable spool: a forwarder whose retransmission
// buffer is backed by internal/wal survives being torn down and rebuilt
// over the same directory, and because the replay keeps the epoch the
// spool journaled, the collector's dedup keeps it from ever
// double-counting.

func openSpool(t testing.TB, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
	if err != nil {
		t.Fatalf("open spool WAL: %v", err)
	}
	return l
}

// TestBatchFrameMatchesSpoolRecord: a frame and its spool record carry
// the same batch body, byte for byte, so the spool journals its exact
// wire frames (DESIGN §12).
func TestBatchFrameMatchesSpoolRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	w := openSpool(t, dir)
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{"127.0.0.1:1"}, Token: "tok", Farm: "same",
		SpoolWAL: w, FrameEvents: 3,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.RecordBatch(testEvents(3)); err != nil {
		t.Fatal(err)
	}
	fwd.mu.Lock()
	if n := len(fwd.led.spool); n != 1 {
		fwd.mu.Unlock()
		t.Fatalf("%d frames spooled, want 1", n)
	}
	body := fwd.led.spool[0].body
	fwd.mu.Unlock()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("spool segments %v (%v), want one", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if batch := body[6:]; !bytes.Contains(seg, batch) {
		t.Fatalf("the spool segment (%d bytes) does not hold the frame's %d-byte batch body", len(seg), len(batch))
	}
}

// TestDroppedFrameStaysDroppedAcrossRestart: a frame dropped at the
// retry cap raises the ack floor, so the spool's mark passes it and a
// restart over the spool does not reload it for another
// DefaultMaxFrameRetries rejections.
func TestDroppedFrameStaysDroppedAcrossRestart(t *testing.T) {
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, &memSink{})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	dir := filepath.Join(t.TempDir(), "spool")
	opts := ForwardOptions{
		Addrs: []string{startCorruptingProxy(t, addr)}, Token: "tok", Farm: "poisoned",
		FrameEvents: 4,
		MinBackoff:  time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	}

	w1 := openSpool(t, dir)
	opts.SpoolWAL = w1
	fwd1, err := NewForwardSink(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd1.RecordBatch(poisonEvents()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return fwd1.Stats().DroppedFrames == 1 }, "poison frame dropped at the retry cap")
	if err := fwd1.Close(); err == nil {
		t.Fatal("dropping a frame must surface via Err/Close")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openSpool(t, dir)
	defer w2.Close()
	opts.SpoolWAL = w2
	fwd2, err := NewForwardSink(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd2.Close()
	if st := fwd2.Stats(); st.SpoolFrames != 0 || st.Enqueued != 0 {
		t.Fatalf("restart reloaded %d frames (%d events); the dropped frame must stay dropped", st.SpoolFrames, st.Enqueued)
	}
}

// TestSpoolWALRestartResumes is the farm-crash drill: a forwarder that
// never reached the collector is torn down, a second forwarder process
// adopts the same spool directory, and every event lands at the
// collector exactly once — including the unframed tail that was still
// pending at teardown.
func TestSpoolWALRestartResumes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")

	// A listener that accepts nothing: the first forwarder can dial but
	// never completes delivery, so everything stays spooled.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	w1 := openSpool(t, dir)
	fwd1, err := NewForwardSink(ForwardOptions{
		Addrs: []string{deadAddr}, Token: "tok", Farm: "durable",
		SpoolWAL: w1, FrameEvents: 32,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 events: three full 32-event frames cut at enqueue time, plus a
	// 4-event tail that only Close journals.
	if err := fwd1.RecordBatch(testEvents(100)); err != nil {
		t.Fatal(err)
	}
	if err := fwd1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w1.Stats().AppendedBatches; got != 4 {
		t.Fatalf("spool WAL holds %d frames, want 4 (3 cut + 1 tail)", got)
	}

	// "Restart": a fresh forwarder over the same directory, now with a
	// live collector. The collector starts serving only after the
	// reloaded spool is checked: one that is up at once can ack frames
	// before Stats is read.
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr := reserveAddr(t)

	w2 := openSpool(t, dir)
	defer w2.Close()
	fwd2, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "durable",
		SpoolWAL: w2, FrameEvents: 32,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := fwd2.Stats(); st.SpoolEvents != 100 || st.SpoolFrames != 4 {
		t.Fatalf("reloaded spool = %d events / %d frames, want 100/4", st.SpoolEvents, st.SpoolFrames)
	}
	stop := startCollectorAt(t, coll, addr)
	defer stop()
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 100 }, "replayed spool delivery")

	// The restarted forwarder keeps working past the replayed tail.
	if err := fwd2.RecordBatch(testEvents(40)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 140 }, "post-restart delivery")
	fwd2.Flush()
	if err := fwd2.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sink.len(); got != 140 {
		t.Fatalf("collector sink has %d events, want exactly 140", got)
	}
	cst := coll.Stats()
	if cst.DupEvents != 0 {
		t.Fatalf("clean restart produced %d duplicate events", cst.DupEvents)
	}
	if len(cst.Farms) != 1 || cst.Farms[0].Epoch != fwd1.led.epoch {
		t.Fatalf("farm state %+v: the restart must keep the epoch its spool journaled (%#x)", cst.Farms, fwd1.led.epoch)
	}
	// Acks were persisted: the spool is fully marked, so a third process
	// would replay nothing.
	if mark, last := w2.Mark(), w2.LastSeq(); mark != last {
		t.Fatalf("spool mark = %d, LastSeq = %d — acked frames would replay", mark, last)
	}
}

// TestDurableCrossEpochDedup is the crash-window drill: frames the
// collector ingested but whose ack never reached the old farm process
// are replayed by a new process. The new process draws a fresh epoch
// but adopts the one its spool journaled, so the collector keeps its
// sequence high-water mark and classifies the replay as duplicates —
// then accepts the next fresh sequence.
func TestDurableCrossEpochDedup(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")

	// Fabricate the crashed farm's spool: two frames journaled under its
	// epoch, no mark (the acks never made it back).
	w1 := openSpool(t, dir)
	if _, err := w1.Append(testEvents(8), spoolTag(0xABCD)); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Append(testEvents(8)[4:], spoolTag(0xABCD)); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// The collector already ingested seq 1..2 under that epoch; its
	// restored mark says so (CollectorOptions.Farms is exactly what
	// dbcollect rebuilds from its own journal on reopen).
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{
		Token: "tok",
		Farms: map[string]FarmMark{"durable": {Epoch: 0xABCD, LastSeq: 2}},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	w2 := openSpool(t, dir)
	defer w2.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "durable",
		SpoolWAL:   w2,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The replayed frames (seq 1..2) must be acked as duplicates, never
	// ingested; the forwarder's spool must drain on those acks.
	waitFor(t, 5*time.Second, func() bool { return fwd.Stats().SpoolFrames == 0 }, "dup replay acked")
	if got := sink.len(); got != 0 {
		t.Fatalf("collector re-ingested %d replayed events", got)
	}

	// Fresh traffic continues the durable sequence space at seq 3.
	if err := fwd.RecordBatch(testEvents(5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 5 }, "post-replay delivery")
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}

	cst := coll.Stats()
	if cst.DupFrames != 2 || cst.DupEvents != 12 {
		t.Fatalf("dup accounting = %d frames / %d events, want 2/12", cst.DupFrames, cst.DupEvents)
	}
	if cst.Events != 5 {
		t.Fatalf("ingested %d events, want 5", cst.Events)
	}
	if len(cst.Farms) != 1 || cst.Farms[0].LastSeq != 3 || cst.Farms[0].Epoch != 0xABCD {
		t.Fatalf("farm state after replay: %+v", cst.Farms)
	}
}

// forwardAll runs one farm process against addr: it forwards events
// off..off+n-1 in 4-event frames, journaling them into a spool WAL in
// spoolDir unless that is empty, and returns once every event is acked.
func forwardAll(t *testing.T, addr, spoolDir string, off, n int) {
	t.Helper()
	opts := ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "f", FrameEvents: 4,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	}
	if spoolDir != "" {
		w := openSpool(t, spoolDir)
		defer w.Close()
		opts.SpoolWAL = w
	}
	fwd, err := NewForwardSink(opts)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = testEvent(off + i)
	}
	if err := fwd.RecordBatch(evs); err != nil {
		t.Fatal(err)
	}
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fwd.Stats(); st.EventsAcked != uint64(n) {
		t.Fatalf("acked %d of %d events: %+v", st.EventsAcked, n, st)
	}
}

// TestNewSpoolAfterRestartIngestsAll is the restart matrix's "spool new
// or lost" row: farm f forwards, then restarts over a spool directory
// that is new — -store added to a farm that forwarded without it, or
// its disk wiped. The new sequence space starts at 1 with nothing to
// replay, so it must come under a fresh epoch: one collector sees both
// processes and must ingest every event, none of the second process's
// frames acked as duplicates of the first's mark.
func TestNewSpoolAfterRestartIngestsAll(t *testing.T) {
	for _, first := range []string{"no spool", "wiped spool"} {
		t.Run(first, func(t *testing.T) {
			sink := &memSink{}
			coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
			if err != nil {
				t.Fatal(err)
			}
			addr, stop := startCollector(t, coll)
			defer stop()

			firstDir := ""
			if first == "wiped spool" {
				firstDir = filepath.Join(t.TempDir(), "spool")
			}
			forwardAll(t, addr, firstDir, 0, 20)
			if firstDir != "" {
				if err := os.RemoveAll(firstDir); err != nil {
					t.Fatal(err)
				}
			}
			forwardAll(t, addr, filepath.Join(t.TempDir(), "spool"), 1000, 12)

			cst := coll.Stats()
			if got := sink.len(); got != 32 || cst.Events != 32 || cst.DupEvents != 0 {
				t.Fatalf("collector ingested %d events (stats %d, %d duplicates), want 32 and 0", got, cst.Events, cst.DupEvents)
			}
		})
	}
}

// TestRestoredMarkMeetsNewSpool: a collector restarts with the mark
// dbcollect rebuilds from its journal, and farm f comes back over an
// empty spool. Its three frames reuse sequences 1..3, at or below the
// restored mark, under a fresh epoch; all 12 events must be ingested.
func TestRestoredMarkMeetsNewSpool(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{
		Token: "tok",
		Farms: map[string]FarmMark{"f": {Epoch: 0xABCD, LastSeq: 5}},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	forwardAll(t, addr, filepath.Join(t.TempDir(), "spool"), 0, 12)
	cst := coll.Stats()
	if got := sink.len(); got != 12 || cst.DupEvents != 0 {
		t.Fatalf("collector ingested %d of 12 events, %d as duplicates", got, cst.DupEvents)
	}
	if len(cst.Farms) != 1 || cst.Farms[0].Epoch == 0xABCD || cst.Farms[0].LastSeq != 3 {
		t.Fatalf("farm state %+v: want a fresh epoch at seq 3", cst.Farms)
	}
}

// TestSourceTagRoundTrip covers the provenance annotation a durable
// collector journals with each ingested batch.
func TestSourceTagRoundTrip(t *testing.T) {
	tag := EncodeSourceTag("farm-9", 0xDEAD, 42)
	farm, epoch, seq, ok := DecodeSourceTag(tag)
	if !ok || farm != "farm-9" || epoch != 0xDEAD || seq != 42 {
		t.Fatalf("round trip = (%q, %#x, %d, %v)", farm, epoch, seq, ok)
	}
	for _, bad := range [][]byte{nil, {}, {1}, tag[:len(tag)-1], append(append([]byte(nil), tag...), 0)} {
		if _, _, _, ok := DecodeSourceTag(bad); ok {
			t.Fatalf("DecodeSourceTag accepted %v", bad)
		}
	}
}

// BenchmarkRelayThroughputWAL is BenchmarkRelayThroughput with the
// spool journaled to disk (interval fsync): the cost of durable
// forwarding over loopback TCP.
func BenchmarkRelayThroughputWAL(b *testing.B) {
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

	w, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{ln.Addr().String()}, Token: "bench", Farm: "bench",
		Block:    true,
		SpoolWAL: w,
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
}
