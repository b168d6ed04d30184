package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
	"decoydb/internal/wire"
)

// FuzzSegment throws arbitrary bytes at Open as the content of a
// segment file. A WAL directory outlives the process that wrote it, so
// recovery must treat it like network input: truncated tails, flipped
// bits, oversized declared lengths — for every input Open must return a
// working log (never panic, and never allocate for a length a record
// only declares; see segmentBudget), whatever survives must replay
// cleanly, and the log must accept new appends and reopen cleanly
// afterwards.
func FuzzSegment(f *testing.F) {
	// A fully valid segment with three batches and a mark.
	seedDir := f.TempDir()
	l, err := Open(Options{Dir: seedDir, Sync: SyncBatch})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		evs := make([]core.Event, 2)
		for j := range evs {
			evs[j] = testEvent(i*2 + j)
		}
		if _, err := l.Append(evs, []byte{byte(i)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.AppendMark(2); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])     // torn mid-record
	f.Add(valid[:headerSize])       // header only
	f.Add(valid[:headerSize/2])     // torn mid-header
	f.Add([]byte{})                 // empty file
	f.Add([]byte("not a wal file")) // garbage header
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+12] ^= 0x80 // bit flip inside first record
	f.Add(flipped)
	// Valid header, then a record declaring a huge length.
	huge := append([]byte(nil), valid[:headerSize]...)
	huge = binary.BigEndian.AppendUint32(huge, 0xfffffff0)
	huge = append(huge, 0xde, 0xad)
	f.Add(huge)
	// Valid header, zero-length record (too short for even a CRC).
	zero := append([]byte(nil), valid[:headerSize]...)
	zero = binary.BigEndian.AppendUint32(zero, 0)
	f.Add(zero)
	// Valid header, then a record declaring 4 MiB, within the record
	// bound, followed by only 8 bytes.
	declared := append([]byte(nil), valid[:headerSize]...)
	declared = binary.BigEndian.AppendUint32(declared, 4<<20)
	f.Add(append(declared, make([]byte, 8)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Dir: dir}
		budget := segmentBudget(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Open(opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			// Open fails only on I/O errors, never on content.
			t.Fatalf("Open: %v", err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > budget {
			t.Fatalf("Open allocated %d bytes over a %d-byte segment (budget %d)", n, len(data), budget)
		}
		st := l.Stats()
		// Whatever recovery accepted must replay without error, with
		// exactly the accounted number of batches.
		var batches, events uint64
		if err := l.Replay(0, func(seq uint64, tag []byte, evs []core.Event) error {
			batches++
			events += uint64(len(evs))
			if seq > st.LastSeq {
				t.Fatalf("replayed seq %d past recovered LastSeq %d", seq, st.LastSeq)
			}
			return nil
		}); err != nil {
			t.Fatalf("Replay after recovery: %v", err)
		}
		if batches != st.Recovered.Batches || events != st.Recovered.Events {
			t.Fatalf("replayed %d batches/%d events, recovery accounted %d/%d",
				batches, events, st.Recovered.Batches, st.Recovered.Events)
		}
		// The log must be live: append, sync, reopen with nothing torn.
		seq, err := l.Append([]core.Event{testEvent(1)}, []byte("t"))
		if err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if seq != st.LastSeq+1 {
			t.Fatalf("appended seq %d, want %d", seq, st.LastSeq+1)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if st2 := l2.Stats(); st2.Recovered.TornBytes != 0 {
			t.Fatalf("second open found torn bytes %d — truncation was not physical", st2.Recovered.TornBytes)
		} else if st2.LastSeq != seq {
			t.Fatalf("reopen LastSeq = %d, want %d", st2.LastSeq, seq)
		}
		l2.Close()
	})
}

// segmentBudget is what Open may allocate to recover a segment holding
// data: a fixed allowance for the log, plus a multiple of the bytes the
// segment holds and of what its batch payloads really inflate to. It
// walks the records as recovery does, but checks nothing: each record
// is cut to the bytes present, and each batch payload inflated up to one
// byte past evcodec.DefaultMaxRaw. A length a record only declares buys
// nothing.
func segmentBudget(data []byte) uint64 {
	var inflated int64
	rest := data[min(headerSize, len(data)):]
	for len(rest) >= 4 {
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		body := rest[:min(n, len(rest))]
		rest = rest[len(body):]
		// body: CRC (4), type (1), tag length (2), tag, batch head, payload
		if len(body) < 7 || body[4] != recBatch {
			continue
		}
		payload := 7 + int(binary.LittleEndian.Uint16(body[5:])) + evcodec.HeadLen
		if len(body) < payload {
			continue
		}
		fr := flate.NewReader(bytes.NewReader(body[payload:]))
		m, _ := io.Copy(io.Discard, io.LimitReader(fr, evcodec.DefaultMaxRaw+1))
		inflated += m
	}
	return 1<<20 + 16*uint64(int64(len(data))+inflated)
}

// FuzzOwnerRecord throws arbitrary bytes at recovery as the body of a
// frame-ownership record. Ownership is what keeps a restarted farm from
// retransmitting an acked frame to the wrong collector, so a corrupt
// owner record must never half-parse into a wrong pin: for every input,
// Open must either decode the record exactly as evcodec.ReadOwner would
// and surface the pin in Owners(), or reject it as a torn tail —
// counted, physically truncated, with every batch before it intact and
// the log still live for real pins afterwards. The record is framed
// with a valid CRC deliberately: the codec, not the checksum, is under
// test here.
func FuzzOwnerRecord(f *testing.F) {
	valid, err := evcodec.AppendOwner(nil, 2, "10.0.0.1:7100")
	if err != nil {
		f.Fatal(err)
	}
	release, err := evcodec.AppendOwner(nil, 2, "")
	if err != nil {
		f.Fatal(err)
	}
	maxAddr, err := evcodec.AppendOwner(nil, 7, strings.Repeat("a", evcodec.MaxOwnerAddr))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(release)
	f.Add(maxAddr)
	f.Add(valid[:3])                                   // torn mid-seq
	f.Add(append(append([]byte(nil), valid...), 0xff)) // trailing byte
	// Declared address length far past MaxOwnerAddr: must be bounded
	// before allocation, never trusted.
	huge := binary.LittleEndian.AppendUint64(nil, 9)
	huge = binary.LittleEndian.AppendUint16(huge, 0xffff)
	f.Add(huge)
	zero, err := evcodec.AppendOwner(nil, 0, "pin-below-any-mark")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zero)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Sync: SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := l.Append([]core.Event{testEvent(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Hand-frame {recOwner, body...} exactly as writeRecordLocked
		// would: length (4 BE, counting the CRC), CRC-32 (4 LE), body.
		rec := append([]byte{recOwner}, body...)
		framed := binary.BigEndian.AppendUint32(nil, uint32(4+len(rec)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(rec))
		framed = append(framed, rec...)
		fh, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(framed); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}

		opts := Options{Dir: dir}
		l2, err := Open(opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		st := l2.Stats()
		owners := l2.Owners()
		if st.Recovered.Batches != 2 {
			t.Fatalf("recovered %d batches, want 2 — the owner record sits after them", st.Recovered.Batches)
		}
		wantSeq, wantAddr, decErr := evcodec.ReadOwner(wire.NewReader(body))
		if decErr == nil {
			// The record is well-formed: recovery must account it and
			// reproduce the pin bit-for-bit (releases and pins at or
			// below the mark — zero here — leave no trace).
			if st.Recovered.TornBytes != 0 {
				t.Fatalf("valid owner record cost %d torn bytes", st.Recovered.TornBytes)
			}
			if st.Recovered.Owners != 1 {
				t.Fatalf("recovery accounted %d owner records, want 1", st.Recovered.Owners)
			}
			if wantAddr != "" && wantSeq > 0 {
				if got := owners[wantSeq]; got != wantAddr {
					t.Fatalf("pin %d recovered as %q, want %q", wantSeq, got, wantAddr)
				}
			} else if _, ok := owners[wantSeq]; ok {
				t.Fatalf("released/below-mark pin %d resurfaced as %q", wantSeq, owners[wantSeq])
			}
		} else {
			// The record is corrupt: it must vanish entirely — no pin,
			// and the tail counted as torn, never silently skipped.
			if len(owners) != 0 {
				t.Fatalf("corrupt owner record (%v) left pins %v", decErr, owners)
			}
			if st.Recovered.TornBytes == 0 {
				t.Fatalf("corrupt owner record (%v) was accepted with no torn bytes", decErr)
			}
		}
		// The log must stay live for real ownership traffic: journal a
		// pin, reopen, and the pin must round-trip.
		if err := l2.AppendOwner(2, "10.0.0.2:7100"); err != nil {
			t.Fatalf("AppendOwner after recovery: %v", err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := l3.Owners()[2]; got != "10.0.0.2:7100" {
			t.Fatalf("pin journaled after recovery came back as %q", got)
		}
		if st3 := l3.Stats(); st3.Recovered.TornBytes != 0 {
			t.Fatalf("second open found torn bytes %d — truncation was not physical", st3.Recovered.TornBytes)
		}
		l3.Close()
	})
}
