package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
	"decoydb/internal/wire"
)

// This file is the read side of the log: Open-time recovery and Replay.
//
// Recovery is where the durability claim is actually earned. A SIGKILL
// or power cut can leave the last segment torn at ANY byte offset — mid
// length prefix, mid CRC, mid payload — and a disk can flip bits in
// records that were written fine. The scan below accepts exactly the
// prefix of each segment that parses and checksums end-to-end, cuts the
// file at the first record that does not, and accounts every discarded
// byte in Stats.Recovered. Nothing is dropped silently, and nothing
// half-parsed is ever replayed.

// errTorn marks a parse failure that truncates the segment at the
// current record boundary rather than failing Open.
var errTorn = errors.New("wal: torn record")

// recoverDir scans opts.Dir and rebuilds the in-memory segment index.
// Called once from Open before the log is shared.
func (l *Log) recoverDir() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		index, ok := segIndex(e.Name())
		if !ok {
			continue // foreign file; leave it alone
		}
		l.segs = append(l.segs, &segment{
			path:  filepath.Join(l.opts.Dir, e.Name()),
			index: index,
		})
	}
	sortSegs(l.segs)
	for _, seg := range l.segs {
		if err := l.recoverSegment(seg); err != nil {
			return err
		}
		if seg.maxSeq > l.lastSeq {
			l.lastSeq = seg.maxSeq
		}
		// An empty segment's header base still anchors the sequence
		// space: a log whose batches were all compacted away must not
		// restart numbering from zero.
		if seg.base > l.lastSeq {
			l.lastSeq = seg.base
		}
	}
	// Ownership pins apply in log order, but a mark in a later segment
	// retires batches owned in an earlier one: prune once the whole
	// directory is scanned.
	for s := range l.owners {
		if s <= l.mark {
			delete(l.owners, s)
		}
	}
	return nil
}

// recoverSegment scans one segment file, populating seg's index fields
// and truncating the file at the first invalid record. A file too
// mangled to even hold a header is truncated to empty and rewritten
// with a fresh header continuing the current sequence space.
func (l *Log) recoverSegment(seg *segment) error {
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", seg.path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat %s: %w", seg.path, err)
	}
	size := info.Size()
	seg.created = info.ModTime()

	base, err := readHeader(f)
	if err != nil {
		// Headerless stub (torn during creation) or foreign garbage:
		// everything in it is loss; reinitialise as an empty segment.
		l.recovered.TornBytes += uint64(size)
		if size > 0 {
			l.recovered.Truncations++
		}
		l.logf("wal: %s: bad header (%v); reset, %d bytes lost", filepath.Base(seg.path), err, size)
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate %s: %w", seg.path, err)
		}
		hdr := wire.NewWriter(headerSize)
		hdr.Uint32BE(Magic).Uint8(FormatVersion).Zeros(3).Uint64LE(l.lastSeq)
		if _, err := f.WriteAt(hdr.Bytes(), 0); err != nil {
			return fmt.Errorf("wal: rewrite header %s: %w", seg.path, err)
		}
		seg.base = l.lastSeq
		seg.size = headerSize
		return nil
	}
	seg.base = base

	br := &countingReader{r: f, off: headerSize}
	valid := int64(headerSize)
	for {
		rec, err := readRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, errTorn) {
				return fmt.Errorf("wal: scan %s: %w", seg.path, err)
			}
			lost := size - valid
			l.recovered.TornBytes += uint64(lost)
			l.recovered.Truncations++
			l.logf("wal: %s: torn tail at offset %d (%v); %d bytes lost", filepath.Base(seg.path), valid, err, lost)
			if err := f.Truncate(valid); err != nil {
				return fmt.Errorf("wal: truncate %s: %w", seg.path, err)
			}
			size = valid
			break
		}
		valid = br.off
		switch rec.typ {
		case recBatch:
			if seg.batches == 0 {
				seg.minSeq = rec.seq
			}
			seg.maxSeq = rec.seq
			seg.batches++
			l.recovered.Batches++
			l.recovered.Events += uint64(len(rec.events))
		case recMark:
			if rec.seq > l.mark {
				l.mark = rec.seq
			}
			l.recovered.Marks++
		case recOwner:
			// Latest record for a sequence wins; an empty address is a
			// released pin. Pins below the mark are pruned after the
			// whole directory is scanned (recoverDir).
			if rec.addr == "" {
				delete(l.owners, rec.seq)
			} else {
				if l.owners == nil {
					l.owners = make(map[uint64]string)
				}
				l.owners[rec.seq] = rec.addr
			}
			l.recovered.Owners++
		}
	}
	seg.size = valid
	return nil
}

// readHeader reads and validates a segment header, returning its base
// sequence.
func readHeader(r io.Reader) (uint64, error) {
	var buf [headerSize]byte
	if err := wire.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	h := wire.NewReader(buf[:])
	magic, _ := h.Uint32BE()
	if magic != Magic {
		return 0, fmt.Errorf("bad magic %#x", magic)
	}
	ver, _ := h.Uint8()
	if ver != FormatVersion {
		return 0, fmt.Errorf("unsupported segment version %d", ver)
	}
	_ = h.Skip(3)
	base, _ := h.Uint64LE()
	return base, nil
}

// countingReader tracks the file offset so the recovery scan knows
// where the last fully valid record ends.
type countingReader struct {
	r   io.Reader
	off int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

// record is one parsed log record.
type record struct {
	typ    byte
	seq    uint64
	tag    []byte
	addr   string       // ownership records: pinned endpoint address
	events []core.Event // decoded batch payload (nil unless wantEvents)
}

// readRecord reads and fully validates the next record: frame length
// bounded by maxRecordBytes, the body read through wire.ReadN so memory
// grows only as its bytes arrive, record CRC verified over the whole
// body, and batch payloads decoded under evcodec's hard limits (so
// anything recovery accepts is guaranteed to replay). io.EOF means a
// clean end of segment — EOF exactly at a record boundary, before any
// prefix byte; a prefix that reads whole but declares more payload than
// the file holds is a torn tail, not a clean end. errTorn-wrapped
// errors mean the segment dies here.
func readRecord(r io.Reader) (record, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return record{}, io.EOF
		}
		return record{}, fmt.Errorf("%w: length prefix: %w", errTorn, err)
	}
	n := int(uint32(pre[0])<<24 | uint32(pre[1])<<16 | uint32(pre[2])<<8 | uint32(pre[3]))
	body, err := wire.ReadN(r, n, maxRecordBytes)
	if err != nil {
		return record{}, fmt.Errorf("%w: %d-byte record body: %w", errTorn, n, err)
	}
	return parseRecord(body)
}

// parseRecord validates one framed record body (crc32 + typed payload).
func parseRecord(body []byte) (record, error) {
	r := wire.NewReader(body)
	sum, err := r.Uint32LE()
	if err != nil {
		return record{}, fmt.Errorf("%w: %w", errTorn, err)
	}
	rest := r.Rest()
	if crc32.ChecksumIEEE(rest) != sum {
		return record{}, fmt.Errorf("%w: record checksum mismatch", errTorn)
	}
	rr := wire.NewReader(rest)
	typ, err := rr.Uint8()
	if err != nil {
		return record{}, fmt.Errorf("%w: %w", errTorn, err)
	}
	switch typ {
	case recBatch:
		tagLen, err := rr.Uint16LE()
		if err != nil {
			return record{}, fmt.Errorf("%w: %w", errTorn, err)
		}
		if int(tagLen) > MaxTag {
			return record{}, fmt.Errorf("%w: %d-byte tag", errTorn, tagLen)
		}
		tag, err := rr.Bytes(int(tagLen))
		if err != nil {
			return record{}, fmt.Errorf("%w: %w", errTorn, err)
		}
		seq, events, _, err := evcodec.ReadBatch(rr)
		if err != nil {
			return record{}, fmt.Errorf("%w: %w", errTorn, err)
		}
		if rr.Len() != 0 {
			return record{}, fmt.Errorf("%w: %d trailing bytes", errTorn, rr.Len())
		}
		out := record{typ: recBatch, seq: seq, events: events}
		if tagLen > 0 {
			out.tag = append([]byte(nil), tag...)
		}
		return out, nil
	case recMark:
		seq, err := rr.Uint64LE()
		if err != nil {
			return record{}, fmt.Errorf("%w: %w", errTorn, err)
		}
		if rr.Len() != 0 {
			return record{}, fmt.Errorf("%w: %d trailing bytes", errTorn, rr.Len())
		}
		return record{typ: recMark, seq: seq}, nil
	case recOwner:
		// evcodec bounds the declared address length before allocation
		// and rejects trailing bytes, so a bit-flipped record cannot
		// over-allocate or half-parse into a wrong pin.
		seq, addr, err := evcodec.ReadOwner(rr)
		if err != nil {
			return record{}, fmt.Errorf("%w: %w", errTorn, err)
		}
		return record{typ: recOwner, seq: seq, addr: addr}, nil
	}
	return record{}, fmt.Errorf("%w: unknown record type %d", errTorn, typ)
}

// Replay streams every recovered batch with sequence >= from, in log
// order, to fn. The tag is the batch's provenance annotation (nil if
// none); neither it nor the events slice may be retained after fn
// returns. Replay holds the log lock, so it cannot run concurrently
// with appends — call it after Open, before wiring the log into a live
// pipeline. A non-nil error from fn aborts the replay and is returned.
func (l *Log) Replay(from uint64, fn func(seq uint64, tag []byte, events []core.Event) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Appends since the last fsync live in the OS page cache; a second
	// read-only descriptor on the same file sees them regardless, so no
	// sync is needed for an in-process replay.
	for _, seg := range l.segs {
		if seg.batches == 0 || seg.maxSeq < from {
			continue
		}
		if err := l.replaySegment(seg, from, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's batch records through fn.
func (l *Log) replaySegment(seg *segment, from uint64, fn func(uint64, []byte, []core.Event) error) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("wal: replay %s: %w", seg.path, err)
	}
	defer f.Close()
	if _, err := readHeader(f); err != nil {
		return fmt.Errorf("wal: replay %s: %w", seg.path, err)
	}
	// Read only the recovered extent: bytes past seg.size (appended by
	// this process after a hypothetical concurrent writer) cannot exist
	// because Replay holds the lock, but bounding the read keeps the
	// invariant local.
	r := io.LimitReader(f, seg.size-headerSize)
	for {
		rec, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Recovery validated this extent; a failure here means the
			// file changed under us or the disk is lying. Surface it.
			return fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		if rec.typ != recBatch || rec.seq < from {
			continue
		}
		if err := fn(rec.seq, rec.tag, rec.events); err != nil {
			return err
		}
	}
}
