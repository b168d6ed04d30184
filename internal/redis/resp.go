// Package redis implements a medium-interaction Redis honeypot modelled on
// RedisHoneyPot (cypwnpwnsocute/RedisHoneyPot), the medium-interaction
// honeypot the paper deployed on port 6379. It speaks RESP2, emulates the
// command surface attackers probe (SET/GET/CONFIG/SLAVEOF/MODULE/...),
// and can be seeded with fake credential data per the paper's fake-data
// configuration.
package redis

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"decoydb/internal/wire"
)

// Protocol limits. Real Redis allows 512 MB bulk strings; a honeypot has no
// reason to buffer anywhere near that from an unauthenticated stranger.
// MaxInlineLen bounds a line without its terminator. MaxDepth bounds how
// deep arrays nest: a client command is one flat array and the deepest
// reply (SCAN) nests two, while unbounded nesting would let a few bytes
// per level grow the decoder's stack until the process dies.
const (
	MaxBulkLen   = 1 << 20 // 1 MiB
	MaxArrayLen  = 1024
	MaxInlineLen = 1 << 16
	MaxDepth     = 8
)

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("redis: protocol error")

// ValueKind discriminates RESP value types.
type ValueKind byte

// RESP2 value kinds.
const (
	SimpleString ValueKind = '+'
	ErrorString  ValueKind = '-'
	Integer      ValueKind = ':'
	BulkString   ValueKind = '$'
	Array        ValueKind = '*'
)

// Value is a parsed RESP value.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Null  bool
	Array []Value
}

// Simple constructs a simple-string value.
func Simple(s string) Value { return Value{Kind: SimpleString, Str: s} }

// Err constructs an error value.
func Err(s string) Value { return Value{Kind: ErrorString, Str: s} }

// Int constructs an integer value.
func Int(n int64) Value { return Value{Kind: Integer, Int: n} }

// Bulk constructs a bulk-string value.
func Bulk(s string) Value { return Value{Kind: BulkString, Str: s} }

// NullBulk constructs the RESP nil bulk string.
func NullBulk() Value { return Value{Kind: BulkString, Null: true} }

// Arr constructs an array value.
func Arr(vs ...Value) Value { return Value{Kind: Array, Array: vs} }

// Encode appends the RESP2 wire form of v to dst.
func Encode(dst []byte, v Value) []byte {
	switch v.Kind {
	case SimpleString:
		dst = append(dst, '+')
		dst = append(dst, v.Str...)
	case ErrorString:
		dst = append(dst, '-')
		dst = append(dst, v.Str...)
	case Integer:
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, v.Int, 10)
	case BulkString:
		if v.Null {
			return append(dst, "$-1\r\n"...)
		}
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, v.Str...)
	case Array:
		if v.Null {
			return append(dst, "*-1\r\n"...)
		}
		dst = append(dst, '*')
		dst = strconv.AppendInt(dst, int64(len(v.Array)), 10)
		dst = append(dst, '\r', '\n')
		for _, e := range v.Array {
			dst = Encode(dst, e)
		}
		return dst
	}
	return append(dst, '\r', '\n')
}

// WriteValue writes v to w in RESP2 wire form.
func WriteValue(w io.Writer, v Value) error {
	_, err := w.Write(Encode(nil, v))
	return err
}

// readLine reads one line and returns it without its terminator. It
// stops reading once the line cannot fit MaxInlineLen, so a line that
// never ends costs no more memory than the longest one accepted.
func readLine(r *bufio.Reader) (string, error) {
	var long []byte // the fragments of a line longer than r's buffer
	for {
		frag, err := r.ReadSlice('\n')
		if len(long)+len(frag) > MaxInlineLen+2 {
			return "", fmt.Errorf("%w: line too long", ErrProtocol)
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, frag...)
			continue
		}
		line := frag
		if long != nil {
			line = append(long, frag...)
		}
		switch {
		case err == nil:
			line = bytes.TrimSuffix(line[:len(line)-1], []byte{'\r'})
		case (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) && len(line) > 0:
			// A final unterminated line still carries signal: JDWP
			// handshakes and similar cross-protocol probes arrive
			// without a trailing newline before the client disconnects.
		default:
			return "", err
		}
		if len(line) > MaxInlineLen {
			return "", fmt.Errorf("%w: line too long", ErrProtocol)
		}
		return string(line), nil
	}
}

// ReadValue parses one RESP value from r. It is used both by the honeypot
// (client commands) and by simulated attackers (server replies).
func ReadValue(r *bufio.Reader) (Value, error) {
	return readValue(r, 0)
}

// readValue parses one value inside depth enclosing arrays.
func readValue(r *bufio.Reader, depth int) (Value, error) {
	t, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch ValueKind(t) {
	case SimpleString, ErrorString:
		line, err := readLine(r)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: ValueKind(t), Str: line}, nil
	case Integer:
		line, err := readLine(r)
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return Int(n), nil
	case BulkString:
		line, err := readLine(r)
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if n == -1 {
			return NullBulk(), nil
		}
		if n < 0 || n > MaxBulkLen {
			return Value{}, fmt.Errorf("%w: bulk length %d out of range", ErrProtocol, n)
		}
		buf, err := wire.ReadN(r, int(n)+2, MaxBulkLen+2)
		if err != nil {
			return Value{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		return Bulk(string(buf[:n])), nil
	case Array:
		line, err := readLine(r)
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, line)
		}
		if n == -1 {
			return Value{Kind: Array, Null: true}, nil
		}
		if n < 0 || n > MaxArrayLen {
			return Value{}, fmt.Errorf("%w: array length %d out of range", ErrProtocol, n)
		}
		if depth >= MaxDepth {
			return Value{}, fmt.Errorf("%w: arrays nested deeper than %d", ErrProtocol, MaxDepth)
		}
		// The slice grows as elements arrive: a declared length costs
		// nothing until the peer sends the elements.
		var vs []Value
		for i := int64(0); i < n; i++ {
			e, err := readValue(r, depth+1)
			if err != nil {
				return Value{}, err
			}
			vs = append(vs, e)
		}
		return Value{Kind: Array, Array: vs}, nil
	default:
		// Not a RESP type byte: treat the rest of the line as an inline
		// command, which real Redis also accepts.
		if err := r.UnreadByte(); err != nil {
			return Value{}, err
		}
		line, err := readLine(r)
		if err != nil {
			return Value{}, err
		}
		var vs []Value
		for _, f := range strings.Fields(line) {
			vs = append(vs, Bulk(f))
		}
		return Value{Kind: Array, Array: vs}, nil
	}
}

// ReadCommand reads one client command: a RESP array of bulk strings or an
// inline command line. It returns the argument vector.
func ReadCommand(r *bufio.Reader) ([]string, error) {
	v, err := ReadValue(r)
	if err != nil {
		return nil, err
	}
	if v.Kind != Array || v.Null {
		return nil, fmt.Errorf("%w: command must be an array", ErrProtocol)
	}
	args := make([]string, 0, len(v.Array))
	for _, e := range v.Array {
		switch e.Kind {
		case BulkString, SimpleString:
			args = append(args, e.Str)
		case Integer:
			args = append(args, strconv.FormatInt(e.Int, 10))
		default:
			return nil, fmt.Errorf("%w: command element kind %c", ErrProtocol, e.Kind)
		}
	}
	return args, nil
}

// EncodeCommand encodes an argument vector as a RESP array of bulk strings,
// the form clients send.
func EncodeCommand(args ...string) []byte {
	vs := make([]Value, len(args))
	for i, a := range args {
		vs[i] = Bulk(a)
	}
	return Encode(nil, Arr(vs...))
}
