package relay

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecoders feeds arbitrary bytes to every decoder in the package:
// the HELLO (read from unauthenticated Internet peers), the ACK, the
// BATCH frame body, the source tag a collector journals (read back from
// disk on restart) and the epoch tag the spool journals (read back by
// ledger.reload). No input may panic any of them. Whatever a decoder
// accepts must be exactly what its encoder writes: an accepted HELLO,
// ACK, source tag or epoch tag re-encodes to the same bytes, and an
// accepted batch re-encodes with EncodeBatch to a frame that decodes to
// the same sequence and events.
func FuzzDecoders(f *testing.F) {
	batch, _ := EncodeBatch(3, testEvents(4))
	for _, valid := range [][]byte{
		encodeHello("tok", "farm", 0xABCD),
		encodeHello(strings.Repeat("t", MaxName), strings.Repeat("f", MaxName), 1),
		encodeAck(7),
		batch,
		EncodeSourceTag("farm-9", 0xDEAD, 42),
		spoolTag(0xABCD),
	} {
		f.Add(valid)
		for _, n := range []int{0, 1, 4, 6, 8, len(valid) / 2, len(valid) - 1} {
			if n < len(valid) {
				f.Add(valid[:n])
			}
		}
		f.Add(append(valid[:len(valid):len(valid)], 0))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if token, farm, epoch, err := decodeHello(in); err == nil {
			if again := encodeHello(token, farm, epoch); !bytes.Equal(again, in) {
				t.Fatalf("accepted HELLO re-encodes to %x, read from %x", again, in)
			}
		}
		if seq, err := decodeAck(in); err == nil {
			if again := encodeAck(seq); !bytes.Equal(again, in) {
				t.Fatalf("accepted ACK re-encodes to %x, read from %x", again, in)
			}
		}
		if farm, epoch, seq, ok := DecodeSourceTag(in); ok {
			if again := EncodeSourceTag(farm, epoch, seq); !bytes.Equal(again, in) {
				t.Fatalf("accepted source tag re-encodes to %x, read from %x", again, in)
			}
		}
		if epoch, ok := spoolEpoch(in); ok {
			if again := spoolTag(epoch); !bytes.Equal(again, in) {
				t.Fatalf("accepted spool tag re-encodes to %x, read from %x", again, in)
			}
		}
		checkDecodeBatch(t, in)
		// A mutated payload almost never matches its CRC, which would
		// keep the fuzzer out of the inflate and event parsers: decode
		// the body a second time with the CRC made to match.
		const crcEnd = 6 + 20 // relay header, then seq, count, raw size, CRC
		if len(in) >= crcEnd {
			fixed := bytes.Clone(in)
			binary.LittleEndian.PutUint32(fixed[crcEnd-4:], crc32.ChecksumIEEE(fixed[crcEnd:]))
			checkDecodeBatch(t, fixed)
		}
	})
}

// checkDecodeBatch decodes one fuzzed frame body and checks that an
// accepted one survives a round trip through EncodeBatch.
func checkDecodeBatch(t *testing.T, body []byte) {
	t.Helper()
	seq, events, _, err := DecodeBatch(body)
	if err != nil {
		if events != nil {
			t.Fatalf("returned %d events alongside %v", len(events), err)
		}
		return
	}
	again, _ := EncodeBatch(seq, events)
	seq2, events2, _, err := DecodeBatch(again)
	if err != nil {
		t.Fatalf("re-encoded batch fails to decode: %v", err)
	}
	if seq2 != seq || !reflect.DeepEqual(events2, events) {
		t.Fatalf("re-encoded batch decodes to seq %d and different events, read seq %d", seq2, seq)
	}
}
