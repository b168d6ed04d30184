// Package wal is the durability layer under the capture pipeline: a
// segmented append-only write-ahead log of event batches. The paper's
// multi-month, 278-node capture is only reproducible if events survive
// process restarts; everything upstream of this package is in-memory,
// so the WAL is what makes a capture longer than one process lifetime.
//
// Two consumers share it. The sharded event store (internal/evstore)
// journals every ingested batch and replays the log on reopen, so
// dbcollect and decoydb recover their full capture after a crash. The
// relay forwarder (internal/relay) backs its retransmission spool with
// it, so a farm that dies with unacked frames resumes retransmitting
// from disk instead of silently losing its tail.
//
// On-disk format — one directory, numbered segment files:
//
//	wal-00000001.seg
//	┌──────────────────────────────────────────────────────┐
//	│ header: "DWAL" ver(1) reserved(3) baseSeq(8 LE)      │
//	├──────────────────────────────────────────────────────┤
//	│ record: len(4 BE) crc32(4 LE) body                   │
//	│   body: type(1)=batch tagLen(2 LE) tag evcodec-batch │
//	│   body: type(1)=mark  seq(8 LE)                      │
//	│   body: type(1)=owner evcodec-owner (seq, addr)      │
//	│ record: ...                                          │
//	└──────────────────────────────────────────────────────┘
//
// The batch body is the shared internal/evcodec encoding — the bytes
// the relay puts on the wire (sequence number, event count, raw size,
// payload CRC, the events as flate stored blocks) — so the segment
// format and the wire format cannot drift, and a spooled frame's
// record holds its exact wire body. Replay inflates any flate level, so
// segments earlier builds compressed still read. The record-level CRC
// covers the whole body, so a bit flip anywhere (not just in the
// payload) is detected before parsing. Mark records persist the
// consumer's high-water mark (collector acks, for the spool); Compact
// drops whole segments at or below it. Owner records persist which
// collector endpoint a spooled batch is pinned to (the shared evcodec
// owner encoding), so a restarted forwarder retransmits each unacked
// frame only to the collector that may already hold it.
//
// Recovery treats the directory as hostile — a crash can tear the tail
// of the last segment at any byte, and disks corrupt silently: every
// declared length is bounded before allocation, every record's CRC is
// verified, and the first invalid record truncates its segment there,
// with the discarded bytes accounted in Stats, never silently dropped.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
	"decoydb/internal/wire"
)

// Segment header.
const (
	// Magic opens every segment file ("DWAL").
	Magic uint32 = 0x4457414c
	// FormatVersion is the segment format version.
	FormatVersion = 1
	// headerSize is the fixed segment header length.
	headerSize = 16
)

// Record types.
const (
	recBatch = 1
	recMark  = 2
	recOwner = 3
)

// Limits and defaults.
const (
	// DefaultSegmentBytes rotates the active segment past this size.
	DefaultSegmentBytes = 64 << 20
	// syncEvery is the background fsync cadence for SyncInterval.
	syncEvery = time.Second
	// maxRecordBytes caps one record on disk, written and read — the
	// same bound the relay puts on one wire frame, plus tag slack.
	maxRecordBytes = 4<<20 + 2048
	// MaxTag caps the provenance annotation stored with a batch.
	MaxTag = 1024
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: log closed")

// SyncPolicy selects when appended records are fsynced to disk. The
// choice trades the machine-crash loss window against append latency;
// a plain process crash (kill -9) loses nothing under any policy,
// because every record is written to the file before Append returns.
type SyncPolicy int

const (
	// SyncInterval fsyncs in the background once a second.
	// The default: bounded loss window, no fsync on the ingest path.
	SyncInterval SyncPolicy = iota
	// SyncBatch fsyncs after every appended record before returning.
	SyncBatch
	// SyncOff never fsyncs; the OS flushes when it pleases.
	SyncOff
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "interval", "":
		return SyncInterval, nil
	case "batch", "every", "always":
		return SyncBatch, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want interval, batch or off)", s)
}

// Options configure a Log. Dir is required.
type Options struct {
	// Dir is the segment directory; created if absent. One Log owns it.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// Logf, when non-nil, receives operational diagnostics (recovered
	// segments, truncated tails, compactions).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// segment is the in-memory index entry for one segment file.
type segment struct {
	path    string
	index   uint64 // creation-ordered file number
	base    uint64 // lastSeq when the segment was created (header field)
	minSeq  uint64 // lowest batch sequence present (0 = none)
	maxSeq  uint64 // highest batch sequence present (0 = none)
	batches int
	size    int64
	created time.Time
}

// Log is a segmented append-only event log. All methods are safe for
// concurrent use; appends serialise on one mutex (the segment file is a
// single append stream regardless).
type Log struct {
	opts Options

	mu      sync.Mutex
	segs    []*segment // creation order; last entry is active
	active  *os.File
	dirty   bool // unsynced appends
	lastSeq uint64
	mark    uint64
	owners  map[uint64]string // unconsumed batch seq → pinned endpoint addr
	closed  bool

	stopCh chan struct{}
	wg     sync.WaitGroup

	firstErr error

	// Counters (guarded by mu).
	appendedBatches uint64
	appendedEvents  uint64
	appendedBytes   uint64
	marks           uint64
	ownerRecs       uint64
	syncs           uint64
	rotations       uint64
	compacted       uint64
	compactedBytes  uint64
	appendLat       core.DurationHist
	recovered       recovery
}

// Open opens (creating if necessary) the log in opts.Dir, recovers
// every segment — truncating a torn tail at the last valid record, with
// the loss accounted in Stats — and readies the last segment for
// append. The returned log's LastSeq continues the recovered sequence
// space; Replay streams the surviving batches.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, stopCh: make(chan struct{})}
	if err := l.recoverDir(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// segName formats the file name of segment number index.
func segName(index uint64) string { return fmt.Sprintf("wal-%08d.seg", index) }

// segIndex parses a segment file name; ok is false for foreign files.
func segIndex(name string) (uint64, bool) {
	var index uint64
	if n, err := fmt.Sscanf(name, "wal-%d.seg", &index); n != 1 || err != nil {
		return 0, false
	}
	return index, true
}

// openActive opens the last recovered segment for append, or creates
// the first segment of a fresh log. Called once from Open, under no
// lock (the log is not yet shared).
func (l *Log) openActive() error {
	if len(l.segs) == 0 {
		return l.newSegment()
	}
	seg := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen %s: %w", seg.path, err)
	}
	if _, err := f.Seek(seg.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: seek %s: %w", seg.path, err)
	}
	l.active = f
	return nil
}

// newSegment seals the current active segment (if any) and starts the
// next one. Caller holds mu (or the log is not yet shared).
func (l *Log) newSegment() error {
	var index uint64 = 1
	if n := len(l.segs); n > 0 {
		index = l.segs[n-1].index + 1
		if l.active != nil {
			if l.dirty {
				if err := l.active.Sync(); err != nil {
					return fmt.Errorf("wal: sync before rotate: %w", err)
				}
				l.dirty = false
				l.syncs++
			}
			if err := l.active.Close(); err != nil {
				return fmt.Errorf("wal: seal segment: %w", err)
			}
			l.active = nil
			l.rotations++
		}
	}
	path := filepath.Join(l.opts.Dir, segName(index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := wire.NewWriter(headerSize)
	hdr.Uint32BE(Magic).Uint8(FormatVersion).Zeros(3).Uint64LE(l.lastSeq)
	if _, err := f.Write(hdr.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.segs = append(l.segs, &segment{
		path: path, index: index, base: l.lastSeq,
		size: headerSize, created: time.Now(),
	})
	l.active = f
	return nil
}

// rotateIfNeededLocked rotates the active segment before a write of
// recLen bytes would take it past SegmentBytes. A single record larger
// than SegmentBytes still gets a segment of its own.
func (l *Log) rotateIfNeededLocked(recLen int) error {
	seg := l.segs[len(l.segs)-1]
	if seg.size > headerSize && seg.size+int64(recLen) > l.opts.SegmentBytes {
		return l.newSegment()
	}
	return nil
}

// writeRecordLocked frames body (crc + length prefix) and appends it to
// the active segment under the configured sync policy.
// recBufs recycles the assembled-record buffer; a record never outlives
// its write call.
var recBufs = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// writeRecordLocked frames the concatenation of parts as one record —
// length prefix, CRC over the body, body — and appends it to the active
// segment with a single write. Taking the body in parts lets Append
// pass its small framing head and the (large) payload without
// materialising the body separately first.
func (l *Log) writeRecordLocked(parts ...[]byte) error {
	n := 0
	crc := uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	if 4+n > maxRecordBytes {
		return fmt.Errorf("wal: %d-byte record exceeds limit %d", 4+n, maxRecordBytes)
	}
	recp := recBufs.Get().(*[]byte)
	rec := (*recp)[:0]
	rec = binary.BigEndian.AppendUint32(rec, uint32(4+n))
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	for _, p := range parts {
		rec = append(rec, p...)
	}
	defer func() { *recp = rec[:0]; recBufs.Put(recp) }()
	if err := l.rotateIfNeededLocked(len(rec)); err != nil {
		return err
	}
	if _, err := l.active.Write(rec); err != nil {
		l.noteErrLocked(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	seg := l.segs[len(l.segs)-1]
	seg.size += int64(len(rec))
	l.appendedBytes += uint64(len(rec))
	if l.opts.Sync == SyncBatch {
		if err := l.active.Sync(); err != nil {
			l.noteErrLocked(err)
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.syncs++
	} else {
		l.dirty = true
	}
	return nil
}

// Append assigns the next sequence number to events, persists them as
// one batch record (with the optional provenance tag, at most MaxTag
// bytes) and returns the sequence. Under SyncBatch the record is
// fsynced before Append returns; under the other policies it is in the
// file (so a process crash loses nothing) but not yet forced to stable
// storage (so a machine crash may). An empty batch is a no-op.
func (l *Log) Append(events []core.Event, tag []byte) (seq uint64, err error) {
	if len(events) == 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.lastSeq, nil
	}
	if len(tag) > MaxTag {
		return 0, fmt.Errorf("wal: %d-byte tag exceeds limit %d", len(tag), MaxTag)
	}
	began := time.Now()
	// Encode before taking the lock: the payload carries no sequence
	// number, so concurrent appenders overlap the encoding and the CRC
	// and only serialise the framed write.
	payload := evcodec.Compress(events)
	defer payload.Release()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	seq = l.lastSeq + 1
	head := make([]byte, 0, 64+len(tag))
	head = append(head, recBatch)
	head = binary.LittleEndian.AppendUint16(head, uint16(len(tag)))
	head = append(head, tag...)
	head = payload.AppendHead(head, seq)
	if err := l.writeRecordLocked(head, payload.Comp); err != nil {
		return 0, err
	}
	l.lastSeq = seq
	seg := l.segs[len(l.segs)-1]
	if seg.batches == 0 {
		seg.minSeq = seq
	}
	seg.maxSeq = seq
	seg.batches++
	l.appendedBatches++
	l.appendedEvents += uint64(len(events))
	l.appendLat.Observe(time.Since(began))
	return seq, nil
}

// AppendMark persists a consumer high-water mark: every batch with
// sequence <= seq has been fully consumed (e.g. acked by the
// collector). Replay(Mark()+1, ...) after a restart skips them. Marks
// below the current one are no-ops.
func (l *Log) AppendMark(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendMarkLocked(seq)
}

func (l *Log) appendMarkLocked(seq uint64) error {
	if l.closed {
		return ErrClosed
	}
	if seq <= l.mark {
		return nil
	}
	body := wire.NewWriter(9)
	body.Uint8(recMark)
	body.Uint64LE(seq)
	if err := l.writeRecordLocked(body.Bytes()); err != nil {
		return err
	}
	l.mark = seq
	l.marks++
	// A mark means every batch at or below it is consumed; their
	// ownership pins are moot and must not resurface on the next Open.
	for s := range l.owners {
		if s <= seq {
			delete(l.owners, s)
		}
	}
	return nil
}

// AppendOwner persists which consumer endpoint the batch with sequence
// seq is pinned to — for the relay spool, the collector address the
// frame was first written to, so a restarted forwarder retransmits it
// only there. An empty addr releases the pin. The latest record for a
// sequence wins, and pins at or below the consumer mark are no-ops (the
// batch is already consumed). Owners() returns the surviving map after
// recovery.
func (l *Log) AppendOwner(seq uint64, addr string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq <= l.mark {
		return nil
	}
	body := make([]byte, 1, 16+len(addr))
	body[0] = recOwner
	body, err := evcodec.AppendOwner(body, seq, addr)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.writeRecordLocked(body); err != nil {
		return err
	}
	if addr == "" {
		delete(l.owners, seq)
	} else {
		if l.owners == nil {
			l.owners = make(map[uint64]string)
		}
		l.owners[seq] = addr
	}
	l.ownerRecs++
	return nil
}

// Owners returns the surviving ownership pins: for each unconsumed
// batch sequence above the mark with a journaled owner, the endpoint
// address it is pinned to. The map is a copy.
func (l *Log) Owners() map[uint64]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint64]string, len(l.owners))
	for s, a := range l.owners {
		out[s] = a
	}
	return out
}

// Mark returns the highest persisted consumer mark.
func (l *Log) Mark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mark
}

// LastSeq returns the sequence of the most recently appended (or
// recovered) batch.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Compact records seq as the consumer mark and deletes every sealed
// segment whose batches all have sequence <= seq (and any sealed
// segment holding no batches at all). The active segment is never
// deleted. It returns the number of segments removed.
func (l *Log) Compact(seq uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.appendMarkLocked(seq); err != nil {
		return 0, err
	}
	return l.removeSegsLocked("compacted", func(_ int, seg *segment) bool {
		return seg.batches == 0 || seg.maxSeq <= l.mark
	}), nil
}

// CompactBefore is the age-based retention policy: it deletes every
// sealed segment whose last write predates cutoff — a segment is known
// to be that old when its successor segment was created before cutoff.
// Unlike Compact, which removes only consumer-acknowledged batches,
// this is deliberate data expiry: it records the highest removed
// sequence as the consumer mark so Replay's contract stays consistent,
// then deletes the segments. The active segment is never deleted. It
// returns the number of segments removed.
func (l *Log) CompactBefore(cutoff time.Time) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	// Find the expiry frontier: the highest batch sequence inside the
	// expired prefix. Segments age in creation order, so the scan stops
	// at the first one still inside the retention window.
	var upTo uint64
	expired := 0
	for i, seg := range l.segs {
		if i == len(l.segs)-1 || !l.segs[i+1].created.Before(cutoff) {
			break
		}
		expired++
		if seg.maxSeq > upTo {
			upTo = seg.maxSeq
		}
	}
	if expired == 0 {
		return 0, nil
	}
	if upTo > l.mark {
		if err := l.appendMarkLocked(upTo); err != nil {
			return 0, err
		}
	}
	return l.removeSegsLocked("expired", func(i int, _ *segment) bool {
		return i < expired
	}), nil
}

// removeSegsLocked deletes every sealed segment drop selects (by index
// and segment), counting each removal and logging it as verb. A
// segment whose file cannot be removed stays in the index, with the
// error noted. The active segment is never deleted. It returns the
// number of segments removed.
func (l *Log) removeSegsLocked(verb string, drop func(i int, seg *segment) bool) (removed int) {
	active := len(l.segs) - 1
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i < active && drop(i, seg) {
			err := os.Remove(seg.path)
			if err == nil {
				removed++
				l.compacted++
				l.compactedBytes += uint64(seg.size)
				l.logf("wal: %s %s (%d batches, seq<=%d)", verb, filepath.Base(seg.path), seg.batches, seg.maxSeq)
				continue
			}
			l.noteErrLocked(err)
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return removed
}

// Sync forces unsynced appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.noteErrLocked(err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.syncs++
	return nil
}

// syncLoop is the SyncInterval background fsyncer.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-t.C:
			if err := l.Sync(); err != nil {
				l.logf("%v", err)
			}
		}
	}
}

// Close syncs and closes the log. Further operations return ErrClosed.
// It returns the first non-recoverable error observed over the log's
// lifetime (nil if none).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.firstErr
		l.mu.Unlock()
		return err
	}
	_ = l.syncLocked()
	l.closed = true
	close(l.stopCh)
	f := l.active
	l.active = nil
	l.mu.Unlock()
	l.wg.Wait()
	if f != nil {
		if err := f.Close(); err != nil {
			l.noteErr(err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// Err returns the first non-recoverable error observed so far.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

func (l *Log) noteErr(err error) {
	l.mu.Lock()
	l.noteErrLocked(err)
	l.mu.Unlock()
}

func (l *Log) noteErrLocked(err error) {
	if l.firstErr == nil {
		l.firstErr = err
	}
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// recovery accounts what Open found — and what it had to discard.
type recovery struct {
	Batches     uint64 // valid batch records found
	Events      uint64 // events inside them
	Marks       uint64 // valid mark records found
	Owners      uint64 // valid ownership records found
	TornBytes   uint64 // bytes truncated after the last valid record
	Truncations uint64 // segments that lost a tail
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	Dir         string
	Segments    int    // segment files currently on disk
	LastSeq     uint64 // highest batch sequence, appended or recovered
	Mark        uint64 // highest consumer mark
	ActiveBytes int64  // size of the active segment

	AppendedBatches uint64
	AppendedEvents  uint64
	AppendedBytes   uint64
	Marks           uint64 // mark records appended this process
	OwnerRecords    uint64 // ownership records appended this process
	Syncs           uint64
	Rotations       uint64
	Compacted       uint64 // segments deleted by Compact/CompactBefore
	CompactedBytes  uint64 // bytes those segments occupied on disk

	// AppendLatency is the distribution of Append call durations
	// (encoding included), observed under the log mutex.
	AppendLatency core.DurationHist

	// Recovered is what Open found on disk, including the loss account:
	// TornBytes/Truncations are the torn tails cut at the last valid
	// record.
	Recovered recovery
}

// String renders the snapshot as one operational log line.
func (s Stats) String() string {
	line := fmt.Sprintf("wal[%s]: seq=%d mark=%d segs=%d appended=%dev/%dfr bytes=%d syncs=%d",
		filepath.Base(s.Dir), s.LastSeq, s.Mark, s.Segments,
		s.AppendedEvents, s.AppendedBatches, s.AppendedBytes, s.Syncs)
	if s.Recovered.Batches > 0 || s.Recovered.TornBytes > 0 {
		line += fmt.Sprintf(" recovered=%dev/%dfr", s.Recovered.Events, s.Recovered.Batches)
	}
	if s.Recovered.TornBytes > 0 {
		line += fmt.Sprintf(" torn=%dB/%dsegs", s.Recovered.TornBytes, s.Recovered.Truncations)
	}
	return line
}

// Stats snapshots the counters. Safe to call concurrently with appends.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir: l.opts.Dir, Segments: len(l.segs),
		LastSeq: l.lastSeq, Mark: l.mark,
		AppendedBatches: l.appendedBatches,
		AppendedEvents:  l.appendedEvents,
		AppendedBytes:   l.appendedBytes,
		Marks:           l.marks,
		OwnerRecords:    l.ownerRecs,
		Syncs:           l.syncs,
		Rotations:       l.rotations,
		Compacted:       l.compacted,
		CompactedBytes:  l.compactedBytes,
		AppendLatency:   l.appendLat,
		Recovered:       l.recovered,
	}
	if n := len(l.segs); n > 0 {
		st.ActiveBytes = l.segs[n-1].size
	}
	return st
}

// sortSegs orders the in-memory segment index by file number.
func sortSegs(segs []*segment) {
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
}
