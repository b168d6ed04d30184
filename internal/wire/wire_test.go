package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestReaderPrimitives(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(0xab)
	w.Uint16LE(0x1234)
	w.Uint16BE(0x5678)
	w.Uint32LE(0xdeadbeef)
	w.Uint32BE(0xcafebabe)
	w.Uint64LE(0x1122334455667788)
	w.CString("hello")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if v, err := r.Uint8(); err != nil || v != 0xab {
		t.Fatalf("Uint8 = %x, %v", v, err)
	}
	if v, err := r.Uint16LE(); err != nil || v != 0x1234 {
		t.Fatalf("Uint16LE = %x, %v", v, err)
	}
	if v, err := r.Uint16BE(); err != nil || v != 0x5678 {
		t.Fatalf("Uint16BE = %x, %v", v, err)
	}
	if v, err := r.Uint32LE(); err != nil || v != 0xdeadbeef {
		t.Fatalf("Uint32LE = %x, %v", v, err)
	}
	if v, err := r.Uint32BE(); err != nil || v != 0xcafebabe {
		t.Fatalf("Uint32BE = %x, %v", v, err)
	}
	if v, err := r.Uint64LE(); err != nil || v != 0x1122334455667788 {
		t.Fatalf("Uint64LE = %x, %v", v, err)
	}
	if s, err := r.CString(); err != nil || s != "hello" {
		t.Fatalf("CString = %q, %v", s, err)
	}
	rest := r.Rest()
	if !bytes.Equal(rest, []byte{1, 2, 3}) {
		t.Fatalf("Rest = %v", rest)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after Rest = %d", r.Len())
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if _, err := r.Uint32LE(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Uint32LE on short buffer: %v", err)
	}
	// The failed read must not consume input.
	if v, err := r.Uint16LE(); err != nil || v != 0x0201 {
		t.Fatalf("Uint16LE after failed read = %x, %v", v, err)
	}
}

func TestReaderUnterminatedCString(t *testing.T) {
	r := NewReader([]byte("no-terminator"))
	if _, err := r.CString(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("CString = %v, want ErrShortBuffer", err)
	}
}

func TestReadNLimit(t *testing.T) {
	if _, err := ReadN(bytes.NewReader(make([]byte, 100)), 50, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadN over limit: %v", err)
	}
	if _, err := ReadN(bytes.NewReader(make([]byte, 100)), -1, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadN negative: %v", err)
	}
	b, err := ReadN(bytes.NewReader([]byte{9, 8, 7}), 3, 10)
	if err != nil || !bytes.Equal(b, []byte{9, 8, 7}) {
		t.Fatalf("ReadN = %v, %v", b, err)
	}
}

// windowReader serves data in chunk-byte reads and records the most
// any Read was asked for beyond the larger of readAhead and the bytes
// already served: the buffer ReadN holds past the bytes that arrived.
type windowReader struct {
	data   []byte
	chunk  int
	served int
	excess int
}

func (w *windowReader) Read(p []byte) (int, error) {
	w.excess = max(w.excess, len(p)-max(readAhead, w.served))
	if w.served == len(w.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), w.chunk)], w.data[w.served:])
	w.served += n
	return n, nil
}

// TestReadNGrowsAsBytesArrive: ReadN reads messages longer than its
// read-ahead exactly, never holds more than readAhead or as many bytes
// as have arrived, whichever is more, ahead of them, reports a stream
// that ends early (at a chunk boundary too) as ErrUnexpectedEOF, and
// still reads a message within the read-ahead with one allocation.
func TestReadNGrowsAsBytesArrive(t *testing.T) {
	data := make([]byte, 5*readAhead+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b, err := ReadN(bytes.NewReader(data), len(data), len(data))
	if err != nil || !bytes.Equal(b, data) {
		t.Fatalf("ReadN of %d bytes: %d bytes back, %v", len(data), len(b), err)
	}
	for _, sent := range []int{readAhead / 2, readAhead + 1, 2*readAhead + 3, len(data) / 2} {
		w := &windowReader{data: data[:sent], chunk: 1000}
		if _, err := ReadN(w, 64*readAhead, 64*readAhead); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream stalls after %d bytes: %v, want ErrUnexpectedEOF", sent, err)
		}
		if w.excess > 0 {
			t.Fatalf("stream stalls after %d bytes: ReadN held %d bytes more than max(readAhead, bytes arrived) ahead of them", sent, w.excess)
		}
	}
	for _, sent := range []int{0, 1, readAhead, readAhead + 1, 3 * readAhead} {
		_, err := ReadN(bytes.NewReader(data[:sent]), len(data), len(data))
		want := io.ErrUnexpectedEOF
		if sent == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) {
			t.Fatalf("stream ends after %d of %d bytes: %v, want %v", sent, len(data), err, want)
		}
	}
	r := bytes.NewReader(nil)
	small := data[:readAhead]
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(small)
		if _, err := ReadN(r, len(small), len(small)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("a %d-byte ReadN allocates %v times, want 1", len(small), n)
	}
}

func TestReadFullTruncated(t *testing.T) {
	buf := make([]byte, 8)
	err := ReadFull(bytes.NewReader([]byte{1, 2}), buf)
	if err == nil {
		t.Fatal("ReadFull on truncated input succeeded")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFull error = %v, want ErrUnexpectedEOF in chain", err)
	}
}

func TestStreamReaders(t *testing.T) {
	src := bytes.NewReader([]byte{0xaa, 0x12, 0x34, 0x00, 0x00, 0x00, 0x07, 0x07, 0x00, 0x00, 0x00})
	if v, err := ReadUint8(src); err != nil || v != 0xaa {
		t.Fatalf("ReadUint8 = %x, %v", v, err)
	}
	if v, err := ReadUint16BE(src); err != nil || v != 0x1234 {
		t.Fatalf("ReadUint16BE = %x, %v", v, err)
	}
	if v, err := ReadUint32BE(src); err != nil || v != 0x07 {
		t.Fatalf("ReadUint32BE = %x, %v", v, err)
	}
	if v, err := ReadUint32LE(src); err != nil || v != 0x07 {
		t.Fatalf("ReadUint32LE = %x, %v", v, err)
	}
}

// Property: CString(Writer.CString(s)) == s for any NUL-free string.
func TestCStringRoundTripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		clean := make([]byte, 0, len(raw))
		for _, b := range raw {
			if b != 0 {
				clean = append(clean, b)
			}
		}
		s := string(clean)
		w := NewWriter(0)
		w.CString(s)
		r := NewReader(w.Bytes())
		got, err := r.CString()
		return err == nil && got == s && r.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every integer width round-trips through Writer/Reader.
func TestIntegerRoundTripQuick(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		w := NewWriter(0)
		w.Uint8(a).Uint16LE(b).Uint16BE(b).Uint32LE(c).Uint32BE(c).Uint64LE(d)
		r := NewReader(w.Bytes())
		ga, _ := r.Uint8()
		gbl, _ := r.Uint16LE()
		gbb, _ := r.Uint16BE()
		gcl, _ := r.Uint32LE()
		gcb, _ := r.Uint32BE()
		gd, err := r.Uint64LE()
		return err == nil && ga == a && gbl == b && gbb == b && gcl == c && gcb == c && gd == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderSkipOffsetLen(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	if err := r.Skip(2); err != nil || r.Offset() != 2 || r.Len() != 3 {
		t.Fatalf("Skip/Offset/Len = %v %d %d", err, r.Offset(), r.Len())
	}
	if err := r.Skip(10); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("over-skip = %v", err)
	}
}

func TestWriterZerosStringLen(t *testing.T) {
	w := NewWriter(0)
	w.String("ab").Zeros(3)
	if w.Len() != 5 {
		t.Fatalf("Len = %d", w.Len())
	}
	b := w.Bytes()
	if b[0] != 'a' || b[2] != 0 || b[4] != 0 {
		t.Fatalf("bytes = %v", b)
	}
}
