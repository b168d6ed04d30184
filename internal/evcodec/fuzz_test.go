package evcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"decoydb/internal/wire"
)

// FuzzReadBatch feeds arbitrary batch bodies to the decoder. Hostile
// bodies must be rejected with an error — never a panic, never an
// allocation beyond what the limits allow — and any body that decodes
// must re-encode to a batch that decodes to the same events.
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
	// A tiny stored payload declaring the largest raw size the limits
	// allow, and one declaring far more: neither may be trusted.
	comp := stored(f, []byte{1, 2, 3})
	f.Add(frame(1, 1, 1<<16, comp, crc32.ChecksumIEEE(comp)))
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

	lim := Limits{MaxRaw: 1 << 16, MaxEvents: 256}
	// Everything one batch within lim may allocate — the inflate buffer
	// (which Grow may double), the decoder and the events with their
	// strings — fits well inside this.
	const allocBudget = 1 << 20
	f.Fuzz(func(t *testing.T, body []byte) {
		checkReadBatch(t, body, lim, allocBudget)
		// A mutated payload almost never matches its CRC, which would
		// keep the fuzzer out of the inflate and event parsers: decode
		// each body a second time with the CRC made to match.
		const crcEnd = HeadLen // seq 8, count 4, raw size 4, CRC 4
		if len(body) >= crcEnd {
			fixed := append([]byte(nil), body...)
			binary.LittleEndian.PutUint32(fixed[crcEnd-4:], crc32.ChecksumIEEE(fixed[crcEnd:]))
			checkReadBatch(t, fixed, lim, allocBudget)
		}
	})
}

// checkReadBatch decodes one fuzzed body within lim and checks what
// FuzzReadBatch promises about it.
func checkReadBatch(t *testing.T, body []byte, lim Limits, allocBudget uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seq, events, rawLen, err := ReadBatch(wire.NewReader(body), lim)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > allocBudget {
		t.Fatalf("ReadBatch allocated %d bytes for a %d-byte body (budget %d)", n, len(body), allocBudget)
	}
	if err != nil {
		if events != nil {
			t.Fatalf("returned %d events alongside %v", len(events), err)
		}
		return
	}
	if len(events) == 0 || len(events) > lim.MaxEvents || rawLen > lim.MaxRaw {
		t.Fatalf("decoded %d events, %d raw bytes, past %+v", len(events), rawLen, lim)
	}
	again, againRaw := encode(seq, events)
	if againRaw != rawLen {
		t.Fatalf("re-encodes to %d raw bytes, decoded from %d", againRaw, rawLen)
	}
	seq2, events2, _, err := ReadBatch(wire.NewReader(again), Limits{})
	if err != nil {
		t.Fatalf("re-encoded batch fails to decode: %v", err)
	}
	if seq2 != seq || !reflect.DeepEqual(events2, events) {
		t.Fatal("re-encoded batch decodes to different events")
	}
}
