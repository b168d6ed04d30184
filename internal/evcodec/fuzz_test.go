package evcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"testing"

	"decoydb/internal/wire"
)

// FuzzReadBatch feeds arbitrary batch bodies to the decoder. Hostile
// bodies must be rejected with an error — never a panic, never an
// allocation for a size the body only declares (see allocBudget) — and
// any body that decodes must re-encode to a batch that decodes to the
// same events.
func FuzzReadBatch(f *testing.F) {
	for _, rt := range roundTrips {
		body, _ := rt.encode(f, 1, testEvents(3))
		f.Add(body)
	}
	valid, _ := encode(9, testEvents(2))
	f.Add(valid[:len(valid)-1])                     // torn payload
	f.Add(valid[:12])                               // torn header
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing byte
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-8] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	// A tiny stored payload declaring the largest raw size and event
	// count the decoder allows, and one declaring far more: none may be
	// trusted.
	comp := stored(f, []byte{1, 2, 3})
	f.Add(frame(1, 1, DefaultMaxRaw, comp, crc32.ChecksumIEEE(comp)))
	f.Add(frame(1, DefaultMaxEvents, DefaultMaxRaw, comp, crc32.ChecksumIEEE(comp)))
	f.Add(frame(1, 1<<20, 1<<30, comp, crc32.ChecksumIEEE(comp)))
	// A payload a writer flushed mid-batch: stored blocks around a sync
	// marker, so the stream is more than one data block and a final one.
	var raw []byte
	for _, e := range testEvents(2) {
		raw = appendEvent(raw, e)
	}
	var flushed bytes.Buffer
	fw, err := flate.NewWriter(&flushed, flate.NoCompression)
	if err != nil {
		f.Fatal(err)
	}
	for _, part := range [][]byte{raw[:len(raw)/2], raw[len(raw)/2:]} {
		if _, err := fw.Write(part); err != nil {
			f.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			f.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(frame(1, 2, len(raw), flushed.Bytes(), crc32.ChecksumIEEE(flushed.Bytes())))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		checkReadBatch(t, body)
		// A mutated payload almost never matches its CRC, which would
		// keep the fuzzer out of the inflate and event parsers: decode
		// each body a second time with the CRC made to match.
		const crcEnd = HeadLen // seq 8, count 4, raw size 4, CRC 4
		if len(body) >= crcEnd {
			fixed := append([]byte(nil), body...)
			binary.LittleEndian.PutUint32(fixed[crcEnd-4:], crc32.ChecksumIEEE(fixed[crcEnd:]))
			checkReadBatch(t, fixed)
		}
	})
}

// allocBudget is what ReadBatch may allocate for body: a fixed
// allowance for the decoder, plus a multiple of what the payload really
// inflates to — the inflate buffer, which growth may double, and the
// events with their strings. A size the body only declares buys nothing.
func allocBudget(body []byte) uint64 {
	var inflated int64
	if len(body) > HeadLen {
		fr := flate.NewReader(bytes.NewReader(body[HeadLen:]))
		inflated, _ = io.Copy(io.Discard, io.LimitReader(fr, DefaultMaxRaw+1))
	}
	return 1<<20 + 16*uint64(inflated)
}

// checkReadBatch decodes one fuzzed body and checks what FuzzReadBatch
// promises about it.
func checkReadBatch(t *testing.T, body []byte) {
	t.Helper()
	budget := allocBudget(body)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seq, events, rawLen, err := ReadBatch(wire.NewReader(body))
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > budget {
		t.Fatalf("ReadBatch allocated %d bytes for a %d-byte body (budget %d)", n, len(body), budget)
	}
	if err != nil {
		if events != nil {
			t.Fatalf("returned %d events alongside %v", len(events), err)
		}
		return
	}
	if len(events) == 0 || len(events) > DefaultMaxEvents || rawLen > DefaultMaxRaw {
		t.Fatalf("decoded %d events, %d raw bytes, past the limits", len(events), rawLen)
	}
	again, againRaw := encode(seq, events)
	if againRaw != rawLen {
		t.Fatalf("re-encodes to %d raw bytes, decoded from %d", againRaw, rawLen)
	}
	seq2, events2, _, err := ReadBatch(wire.NewReader(again))
	if err != nil {
		t.Fatalf("re-encoded batch fails to decode: %v", err)
	}
	if seq2 != seq || !reflect.DeepEqual(events2, events) {
		t.Fatal("re-encoded batch decodes to different events")
	}
}
