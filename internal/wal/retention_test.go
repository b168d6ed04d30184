package wal

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCompactBefore: the age-based retention policy removes sealed
// segments whose successor was created before the cutoff, advances the
// consumer mark over the expired batches, and accounts the reclaimed
// bytes — while everything younger than the cutoff keeps replaying.
func TestCompactBefore(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, Sync: SyncBatch})
	defer l.Close()

	// Old era: several batches, each rotating into its own tiny segment.
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testEvents(8), nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	cutoff := time.Now()
	time.Sleep(time.Millisecond)
	// New era: batches that must survive retention.
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testEvents(8), nil); err != nil {
			t.Fatal(err)
		}
	}

	removed, err := l.CompactBefore(cutoff)
	if err != nil {
		t.Fatalf("CompactBefore: %v", err)
	}
	if removed == 0 {
		t.Fatal("CompactBefore removed nothing")
	}
	st := l.Stats()
	if st.Compacted != uint64(removed) {
		t.Fatalf("Stats.Compacted = %d, want %d", st.Compacted, removed)
	}
	if st.CompactedBytes == 0 {
		t.Fatal("Stats.CompactedBytes = 0, want the reclaimed segment bytes")
	}
	if st.Mark == 0 {
		t.Fatal("expiry did not advance the consumer mark")
	}
	if st.Mark >= 5 {
		t.Fatalf("Mark = %d: retention expired new-era batches (seq 5..7)", st.Mark)
	}

	// Everything past the mark must still replay, ending at the last
	// appended batch.
	got := replayAll(t, l, l.Mark()+1)
	if len(got) == 0 {
		t.Fatal("nothing replays after retention")
	}
	if last := got[len(got)-1].seq; last != 7 {
		t.Fatalf("replay ends at seq %d, want 7", last)
	}
	for _, b := range got {
		if b.seq <= st.Mark {
			t.Fatalf("replay surfaced expired seq %d (mark %d)", b.seq, st.Mark)
		}
	}

	// A second pass with the same cutoff is a no-op.
	if again, err := l.CompactBefore(cutoff); err != nil || again != 0 {
		t.Fatalf("second CompactBefore = (%d, %v), want (0, nil)", again, err)
	}
}

// TestCompactBeforeFutureCutoffKeepsActive: even a cutoff in the future
// never deletes the active segment, so appends continue seamlessly.
func TestCompactBeforeFutureCutoffKeepsActive(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, Sync: SyncBatch})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testEvents(8), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.CompactBefore(time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 1 {
		t.Fatalf("active segment deleted: %d segments", st.Segments)
	}
	seq, err := l.Append(testEvents(1), nil)
	if err != nil {
		t.Fatalf("append after full expiry: %v", err)
	}
	if seq != 4 {
		t.Fatalf("sequence after expiry = %d, want 4", seq)
	}
}

// TestRemovalKeepsUnremovableSegment: Compact and CompactBefore share
// one removal loop, which counts each removed segment and keeps one
// whose file cannot be removed in the index, with the error noted,
// instead of forgetting data that is still on disk.
func TestRemovalKeepsUnremovableSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, Sync: SyncBatch})
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testEvents(8), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A non-empty directory in place of the first segment file makes
	// os.Remove fail.
	first := filepath.Join(dir, segName(1))
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(first, "pinned"), 0o755); err != nil {
		t.Fatal(err)
	}
	compacted := 0
	for _, pass := range []struct {
		name    string
		compact func() (int, error)
	}{
		{"Compact", func() (int, error) { return l.Compact(l.LastSeq()) }},
		{"CompactBefore", func() (int, error) { return l.CompactBefore(time.Now().Add(time.Hour)) }},
	} {
		removed, err := pass.compact()
		if err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		compacted += removed
		st := l.Stats()
		if st.Compacted != uint64(compacted) {
			t.Fatalf("after %s: Stats.Compacted = %d, removals returned %d", pass.name, st.Compacted, compacted)
		}
		if len(l.segs) != 2 || l.segs[0].path != first {
			t.Fatalf("after %s: %d segments indexed; want the unremovable one and the active one", pass.name, len(l.segs))
		}
	}
	if compacted == 0 {
		t.Fatal("nothing was removed")
	}
	if l.Err() == nil {
		t.Fatal("the failed removal was not noted")
	}
}

// TestAppendLatencyHistogram: every successful append lands one
// observation in the latency histogram.
func TestAppendLatencyHistogram(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncBatch})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testEvents(4), nil); err != nil {
			t.Fatal(err)
		}
	}
	h := l.Stats().AppendLatency
	if h.Count != 5 {
		t.Fatalf("AppendLatency.Count = %d, want 5", h.Count)
	}
	if h.Sum <= 0 || h.Max <= 0 {
		t.Fatalf("AppendLatency Sum=%s Max=%s, want positive", h.Sum, h.Max)
	}
}
