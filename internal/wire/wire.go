// Package wire provides low-level byte encoding helpers shared by the
// protocol honeypots: little/big-endian primitives, length-prefixed frame
// readers with hard size limits, and cursor-style buffer parsing that never
// panics on truncated input.
//
// Honeypots face the open Internet, so every reader in this package treats
// its input as hostile: declared lengths are bounded, short reads surface
// as errors, and no parsing routine indexes past the data it was handed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrFrameTooLarge is returned when a length-prefixed frame declares a size
// beyond the caller-supplied limit. Oversized declarations are a common
// fuzzing / resource-exhaustion pattern against exposed listeners.
var ErrFrameTooLarge = errors.New("wire: declared frame exceeds limit")

// ErrShortBuffer is returned by Reader methods when the remaining input is
// smaller than the requested read.
var ErrShortBuffer = errors.New("wire: short buffer")

// ReadFull reads exactly len(buf) bytes, mapping io.ErrUnexpectedEOF and
// io.EOF after partial data onto a single error shape.
func ReadFull(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("wire: read %d bytes: %w", len(buf), err)
	}
	return nil
}

// ReadUint8 reads one byte.
func ReadUint8(r io.Reader) (byte, error) {
	var b [1]byte
	if err := ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// ReadUint16BE reads a big-endian uint16.
func ReadUint16BE(r io.Reader) (uint16, error) {
	var b [2]byte
	if err := ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

// ReadUint32BE reads a big-endian uint32.
func ReadUint32BE(r io.Reader) (uint32, error) {
	var b [4]byte
	if err := ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

// ReadUint32LE reads a little-endian uint32.
func ReadUint32LE(r io.Reader) (uint32, error) {
	var b [4]byte
	if err := ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// readAhead is the most ReadN allocates before the bytes it reads
// arrive. A message of readAhead bytes or less costs one allocation.
const readAhead = 64 << 10

// ReadN reads exactly n bytes after validating n against limit. The
// buffer starts at readAhead bytes and doubles each time it fills, so
// it never runs more than readAhead, or as many bytes as have arrived,
// whichever is more, ahead of them: a peer that declares a large
// message and then stalls or hangs up pins at most twice what it sent
// (readAhead if it sent less), not the declared length.
func ReadN(r io.Reader, n, limit int) ([]byte, error) {
	if n < 0 || n > limit {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, limit)
	}
	buf := make([]byte, 0, min(n, readAhead))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*len(buf))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("wire: read %d bytes: %w", n, err)
		}
	}
	return buf, nil
}

// ReadFrame reads one uint32-big-endian length-prefixed frame and returns
// its payload. The declared length is validated against limit before any
// payload allocation, and the payload is read through ReadN, so a
// hostile peer cannot make the reader allocate more than limit bytes no
// matter what length it declares, nor more than readAhead or twice what
// it sent. A zero-length frame returns an empty (non-nil) payload.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	n, err := ReadUint32BE(r)
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(limit) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, limit)
	}
	return ReadN(r, int(n), limit)
}

// WriteFrame writes payload as one uint32-big-endian length-prefixed
// frame — the symmetric counterpart of ReadFrame. The length prefix and
// payload are written in a single Write call so a frame is never split
// by a concurrent writer on the same connection.
func WriteFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write %d-byte frame: %w", len(payload), err)
	}
	return nil
}

// Reader is a bounds-checked cursor over a byte slice. All methods return
// ErrShortBuffer instead of panicking when the input is truncated, which is
// the normal case when parsing attacker-supplied frames.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader positioned at the start of buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Offset reports the current read position.
func (r *Reader) Offset() int { return r.off }

// Bytes returns the next n bytes without copying.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.Len() < n {
		return nil, ErrShortBuffer
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Skip advances the cursor by n bytes.
func (r *Reader) Skip(n int) error {
	_, err := r.Bytes(n)
	return err
}

// Uint8 reads one byte.
func (r *Reader) Uint8() (byte, error) {
	b, err := r.Bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Uint16LE reads a little-endian uint16.
func (r *Reader) Uint16LE() (uint16, error) {
	b, err := r.Bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

// Uint16BE reads a big-endian uint16.
func (r *Reader) Uint16BE() (uint16, error) {
	b, err := r.Bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

// Uint32LE reads a little-endian uint32.
func (r *Reader) Uint32LE() (uint32, error) {
	b, err := r.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Uint32BE reads a big-endian uint32.
func (r *Reader) Uint32BE() (uint32, error) {
	b, err := r.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Uint64LE reads a little-endian uint64.
func (r *Reader) Uint64LE() (uint64, error) {
	b, err := r.Bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// CString reads a NUL-terminated string, consuming the terminator.
func (r *Reader) CString() (string, error) {
	for i := r.off; i < len(r.buf); i++ {
		if r.buf[i] == 0 {
			s := string(r.buf[r.off:i])
			r.off = i + 1
			return s, nil
		}
	}
	return "", ErrShortBuffer
}

// Rest returns all unread bytes.
func (r *Reader) Rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Writer builds a byte buffer with primitive appends. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity hint n.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the accumulated length.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends one byte.
func (w *Writer) Uint8(v byte) *Writer {
	w.buf = append(w.buf, v)
	return w
}

// Uint16LE appends a little-endian uint16.
func (w *Writer) Uint16LE(v uint16) *Writer {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	return w
}

// Uint16BE appends a big-endian uint16.
func (w *Writer) Uint16BE(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// Uint32LE appends a little-endian uint32.
func (w *Writer) Uint32LE(v uint32) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	return w
}

// Uint32BE appends a big-endian uint32.
func (w *Writer) Uint32BE(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// Uint64LE appends a little-endian uint64.
func (w *Writer) Uint64LE(v uint64) *Writer {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	return w
}

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) *Writer {
	w.buf = append(w.buf, b...)
	return w
}

// String appends s verbatim (no terminator).
func (w *Writer) String(s string) *Writer {
	w.buf = append(w.buf, s...)
	return w
}

// CString appends s followed by a NUL terminator.
func (w *Writer) CString(s string) *Writer {
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, 0)
	return w
}

// Zeros appends n zero bytes.
func (w *Writer) Zeros(n int) *Writer {
	w.buf = append(w.buf, make([]byte, n)...)
	return w
}
