package wal

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"decoydb/internal/core"
)

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

// mustOpen opens a log and fails the test on error.
func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// replayAll collects every batch the log replays from seq `from`.
type replayed struct {
	seq    uint64
	tag    []byte
	events []core.Event
}

func replayAll(t *testing.T, l *Log, from uint64) []replayed {
	t.Helper()
	var out []replayed
	err := l.Replay(from, func(seq uint64, tag []byte, events []core.Event) error {
		out = append(out, replayed{
			seq:    seq,
			tag:    append([]byte(nil), tag...),
			events: append([]core.Event(nil), events...),
		})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Sync: SyncBatch})

	var want []replayed
	for i := 0; i < 10; i++ {
		evs := testEvents(3 + i%5)
		tag := []byte(fmt.Sprintf("tag-%d", i))
		if i%2 == 0 {
			tag = nil
		}
		seq, err := l.Append(evs, tag)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, i+1)
		}
		want = append(want, replayed{seq: seq, tag: tag, events: evs})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := l.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", got)
	}
	st := l.Stats()
	if st.Recovered.Batches != 10 || st.Recovered.TornBytes != 0 {
		t.Fatalf("recovered = %+v, want 10 batches, 0 torn", st.Recovered)
	}
	got := replayAll(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.seq != w.seq {
			t.Fatalf("batch %d: seq = %d, want %d", i, g.seq, w.seq)
		}
		if string(g.tag) != string(w.tag) {
			t.Fatalf("batch %d: tag = %q, want %q", i, g.tag, w.tag)
		}
		if len(g.events) != len(w.events) {
			t.Fatalf("batch %d: %d events, want %d", i, len(g.events), len(w.events))
		}
		for j := range g.events {
			if g.events[j] != w.events[j] {
				t.Fatalf("batch %d event %d:\n got %+v\nwant %+v", i, j, g.events[j], w.events[j])
			}
		}
	}
	// Replay from the middle skips the prefix.
	if mid := replayAll(t, l, 6); len(mid) != 5 {
		t.Fatalf("Replay(6) = %d batches, want 5", len(mid))
	} else if mid[0].seq != 6 {
		t.Fatalf("Replay(6) starts at seq %d, want 6", mid[0].seq)
	}
}

func TestEmptyAppendIsNoop(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	seq, err := l.Append(nil, nil)
	if err != nil || seq != 0 {
		t.Fatalf("Append(nil) = (%d, %v), want (0, nil)", seq, err)
	}
	if st := l.Stats(); st.AppendedBatches != 0 {
		t.Fatalf("empty append was persisted: %+v", st)
	}
}

func TestTagLimit(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	if _, err := l.Append(testEvents(1), make([]byte, MaxTag+1)); err == nil {
		t.Fatal("oversized tag accepted")
	}
	if _, err := l.Append(testEvents(1), make([]byte, MaxTag)); err != nil {
		t.Fatalf("max-size tag rejected: %v", err)
	}
}

// TestTornTailEveryOffset is the core durability claim: truncate the
// segment at EVERY byte offset and prove that reopening recovers
// exactly the batches whose records lie wholly inside the prefix, with
// the discarded bytes accounted — never a panic, never a silent loss,
// never a half-parsed batch.
func TestTornTailEveryOffset(t *testing.T) {
	// Build a reference segment with SyncBatch so the file is complete.
	refDir := t.TempDir()
	l := mustOpen(t, Options{Dir: refDir, Sync: SyncBatch})
	const batches = 6
	ends := []int64{headerSize} // file offset after header and after each record
	for i := 0; i < batches; i++ {
		if _, err := l.Append(testEvents(2+i), []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		ends = append(ends, l.Stats().ActiveBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ref)) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, stats said %d", len(ref), ends[len(ends)-1])
	}

	// complete(cut) = number of records wholly inside a cut-byte prefix.
	complete := func(cut int64) int {
		n := 0
		for _, e := range ends[1:] {
			if e <= cut {
				n++
			}
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(ref)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), ref[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		wantBatches := complete(cut)
		st := l.Stats()
		if int(st.Recovered.Batches) != wantBatches {
			t.Fatalf("cut=%d: recovered %d batches, want %d", cut, st.Recovered.Batches, wantBatches)
		}
		if st.LastSeq != uint64(wantBatches) {
			t.Fatalf("cut=%d: LastSeq = %d, want %d", cut, st.LastSeq, wantBatches)
		}
		// Every byte past the last complete record is accounted loss.
		wantValid := ends[wantBatches]
		if cut < headerSize {
			wantValid = headerSize // header was rebuilt; whole stub was loss
			if int64(st.Recovered.TornBytes) != cut {
				t.Fatalf("cut=%d: torn = %d bytes, want %d", cut, st.Recovered.TornBytes, cut)
			}
		} else if int64(st.Recovered.TornBytes) != cut-wantValid {
			t.Fatalf("cut=%d: torn = %d bytes, want %d", cut, st.Recovered.TornBytes, cut-wantValid)
		}
		wantTrunc := uint64(0)
		if (cut > 0 && cut < headerSize) || (cut >= headerSize && cut != wantValid) {
			wantTrunc = 1
		}
		if st.Recovered.Truncations != wantTrunc {
			t.Fatalf("cut=%d: truncations = %d, want %d", cut, st.Recovered.Truncations, wantTrunc)
		}
		if got := replayAll(t, l, 1); len(got) != wantBatches {
			t.Fatalf("cut=%d: replayed %d batches, want %d", cut, len(got), wantBatches)
		}
		// The log must be appendable after recovery, and a second reopen
		// must be clean (the tail was physically truncated).
		if _, err := l.Append(testEvents(1), nil); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if st2 := l2.Stats(); st2.Recovered.TornBytes != 0 {
			t.Fatalf("cut=%d: second open found torn bytes: %+v", cut, st2.Recovered)
		}
		if got := l2.LastSeq(); got != uint64(wantBatches)+1 {
			t.Fatalf("cut=%d: LastSeq after append+reopen = %d, want %d", cut, got, wantBatches+1)
		}
		l2.Close()
	}
}

// TestBitFlipTruncates proves the record CRC catches payload corruption
// that leaves lengths intact: flipping one byte anywhere inside a
// record's extent invalidates that record and everything after it.
func TestBitFlipTruncates(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Sync: SyncBatch})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testEvents(4), nil); err != nil {
			t.Fatal(err)
		}
	}
	recEnds := []int64{headerSize}
	l.Close()
	path := filepath.Join(dir, segName(1))
	ref, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct record boundaries from the length prefixes.
	for off := int64(headerSize); off < int64(len(ref)); {
		n := int64(uint32(ref[off])<<24 | uint32(ref[off+1])<<16 | uint32(ref[off+2])<<8 | uint32(ref[off+3]))
		off += 4 + n
		recEnds = append(recEnds, off)
	}
	if len(recEnds) != 5 {
		t.Fatalf("expected 4 records, boundaries %v", recEnds)
	}

	// Flip a byte inside record 2 (index 1): body byte, not its length
	// prefix, so the frame still reads but the CRC must catch it.
	for _, flip := range []int64{recEnds[1] + 6, (recEnds[1] + recEnds[2]) / 2, recEnds[2] - 1} {
		mut := append([]byte(nil), ref...)
		mut[flip] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("flip@%d: Open: %v", flip, err)
		}
		st := l.Stats()
		if st.Recovered.Batches != 1 || st.LastSeq != 1 {
			t.Fatalf("flip@%d: recovered %d batches (seq %d), want 1", flip, st.Recovered.Batches, st.LastSeq)
		}
		if st.Recovered.TornBytes != uint64(int64(len(ref))-recEnds[1]) {
			t.Fatalf("flip@%d: torn = %d, want %d", flip, st.Recovered.TornBytes, int64(len(ref))-recEnds[1])
		}
		l.Close()
	}
}

func TestRotationAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every batch rotates.
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, Sync: SyncBatch})
	for i := 0; i < 8; i++ {
		if _, err := l.Append(testEvents(8), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 4 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}

	// Compact below the mark: sealed segments holding only seq <= 5 go.
	removed, err := l.Compact(5)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if removed == 0 {
		t.Fatal("Compact removed nothing")
	}
	if got := l.Mark(); got != 5 {
		t.Fatalf("Mark = %d, want 5", got)
	}
	// Everything past the mark must still replay.
	got := replayAll(t, l, 6)
	if len(got) != 3 {
		t.Fatalf("after compact: replayed %d batches, want 3", len(got))
	}
	if got[0].seq != 6 {
		t.Fatalf("after compact: replay starts at seq %d, want 6", got[0].seq)
	}
	l.Close()

	// Reopen: mark and remaining batches survive.
	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := l.Mark(); got != 5 {
		t.Fatalf("Mark after reopen = %d, want 5", got)
	}
	if got := l.LastSeq(); got != 8 {
		t.Fatalf("LastSeq after reopen = %d, want 8", got)
	}
	if got := replayAll(t, l, l.Mark()+1); len(got) != 3 {
		t.Fatalf("replayed %d unmarked batches, want 3", len(got))
	}
}

// TestSeqSurvivesFullCompaction: when every batch has been compacted
// away, the sequence space must still continue after reopen (the header
// base anchors it) — a durable forwarder reusing sequence numbers would
// be silently deduped by the collector.
func TestSeqSurvivesFullCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, Sync: SyncBatch})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testEvents(8), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(5); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq after full compaction + reopen = %d, want 5", got)
	}
	seq, err := l.Append(testEvents(1), nil)
	if err != nil || seq != 6 {
		t.Fatalf("next Append = (%d, %v), want (6, nil)", seq, err)
	}
}

func TestClosedLog(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testEvents(1), nil); err != ErrClosed {
		t.Fatalf("Append after close = %v, want ErrClosed", err)
	}
	if err := l.AppendMark(1); err != ErrClosed {
		t.Fatalf("AppendMark after close = %v, want ErrClosed", err)
	}
	if _, err := l.Compact(1); err != ErrClosed {
		t.Fatalf("Compact after close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	defer l.Close()
	if _, err := l.Append(testEvents(1), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sync never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentAppend exercises the lock paths under -race.
func TestConcurrentAppend(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 4096})
	defer l.Close()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := l.Append(testEvents(3), nil); err != nil {
					done <- err
					return
				}
				if i%10 == 0 {
					_ = l.Sync()
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.LastSeq(); got != 200 {
		t.Fatalf("LastSeq = %d, want 200", got)
	}
	n := 0
	if err := l.Replay(1, func(_ uint64, _ []byte, evs []core.Event) error {
		n += len(evs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("replayed %d events, want 600", n)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if _, err := l.Append(testEvents(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range []SyncPolicy{SyncOff, SyncInterval, SyncBatch} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Sync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			evs := testEvents(256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(evs, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*256/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func BenchmarkWALRecover(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	evs := testEvents(256)
	const batches = 400 // ~100k events on disk
	for i := 0; i < batches; i++ {
		if _, err := l.Append(evs, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if l.LastSeq() != batches {
			b.Fatalf("recovered seq %d", l.LastSeq())
		}
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N)*batches*256/b.Elapsed().Seconds(), "events/s")
}
