package evstore

import (
	"fmt"
	"testing"

	"decoydb/internal/core"
	"decoydb/internal/wal"
)

// TestWALRecovery is the store-level durability round trip: ingest into
// a journaled store, reopen the journal into a fresh store, and the
// rebuilt aggregates must match the originals.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(start, 20, nil, 4)
	if n, err := s.AttachWAL(l, nil); err != nil || n != 0 {
		t.Fatalf("AttachWAL on fresh dir = (%d, %v)", n, err)
	}

	var batch []core.Event
	for i := 0; i < 50; i++ {
		addr := fmt.Sprintf("198.51.100.%d", i%10+1)
		batch = append(batch,
			ev(addr, lowInfo(core.MSSQL), core.EventConnect, i%48),
			ev(addr, lowInfo(core.MSSQL), core.EventLogin, i%48),
		)
	}
	if err := s.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	// The per-event path must journal too.
	s.Record(ev("203.0.113.9", lowInfo(core.MySQL), core.EventCommand, 3))
	wantEvents := s.Events()
	wantUnique := s.Snapshot().UniqueIPs(Query{})
	wantHourly := s.Snapshot().HourlyUnique(Query{})
	s.Flush()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s2 := NewSharded(start, 20, nil, 4)
	n, err := s2.AttachWAL(l2, nil)
	if err != nil {
		t.Fatalf("AttachWAL replay: %v", err)
	}
	if int64(n) != wantEvents {
		t.Fatalf("replayed %d events, want %d", n, wantEvents)
	}
	if got := s2.Events(); got != wantEvents {
		t.Fatalf("Events after recovery = %d, want %d", got, wantEvents)
	}
	if got := s2.Snapshot().UniqueIPs(Query{}); got != wantUnique {
		t.Fatalf("UniqueIPs after recovery = %d, want %d", got, wantUnique)
	}
	gotHourly := s2.Snapshot().HourlyUnique(Query{})
	for h := range wantHourly {
		if gotHourly[h] != wantHourly[h] {
			t.Fatalf("hourly[%d] = %d, want %d", h, gotHourly[h], wantHourly[h])
		}
	}
	// The recovered store keeps journaling: one more batch, one more
	// sequence number past the recovered tail.
	if err := s2.RecordBatch([]core.Event{ev("203.0.113.10", lowInfo(core.MySQL), core.EventConnect, 0)}); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Events(), wantEvents+1; got != want {
		t.Fatalf("Events after post-recovery ingest = %d, want %d", got, want)
	}
}

// TestWALTaggedBatches: tags journaled via the TaggedBatchSink path come
// back through AttachWAL's onReplay callback in ingest order — the
// mechanism dbcollect uses to rebuild its per-farm dedup marks.
func TestWALTaggedBatches(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(start, 20, nil, 2)
	if _, err := s.AttachWAL(l, nil); err != nil {
		t.Fatal(err)
	}
	var sink core.TaggedBatchSink = s // compile-time interface check
	for i := 0; i < 3; i++ {
		tag := []byte(fmt.Sprintf("farm-a|%d", i+1))
		if err := sink.RecordBatchTagged([]core.Event{ev("198.51.100.7", lowInfo(core.MSSQL), core.EventConnect, i)}, tag); err != nil {
			t.Fatal(err)
		}
	}
	// An untagged batch interleaves.
	if err := s.RecordBatch([]core.Event{ev("198.51.100.8", lowInfo(core.MySQL), core.EventConnect, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s2 := NewSharded(start, 20, nil, 2)
	var tags []string
	if _, err := s2.AttachWAL(l2, func(tag []byte) {
		tags = append(tags, string(tag))
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"farm-a|1", "farm-a|2", "farm-a|3", ""}
	if len(tags) != len(want) {
		t.Fatalf("onReplay saw %d batches (%q), want %d", len(tags), tags, len(want))
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tag[%d] = %q, want %q", i, tags[i], want[i])
		}
	}
	if got := s2.Events(); got != 4 {
		t.Fatalf("Events after tagged recovery = %d, want 4", got)
	}
}

func TestAttachWALTwiceRejected(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewSharded(start, 20, nil, 1)
	if _, err := s.AttachWAL(l, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachWAL(l, nil); err == nil {
		t.Fatal("second AttachWAL accepted")
	}
}
