package redis

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"decoydb/internal/hptest"
)

func parse(t *testing.T, b []byte) Value {
	t.Helper()
	v, err := ReadValue(bufio.NewReader(bytes.NewReader(b)))
	if err != nil {
		t.Fatalf("ReadValue(%q): %v", b, err)
	}
	return v
}

func TestEncodeDecodeBasics(t *testing.T) {
	cases := []Value{
		Simple("OK"),
		Err("ERR boom"),
		Int(-42),
		Bulk("hello\r\nworld"),
		Bulk(""),
		NullBulk(),
		Arr(),
		Arr(Bulk("SET"), Bulk("k"), Bulk("v")),
		Arr(Int(1), Simple("a"), Arr(Bulk("nested"))),
	}
	for _, want := range cases {
		got := parse(t, Encode(nil, want))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
}

func TestInlineCommand(t *testing.T) {
	v := parse(t, []byte("PING extra\r\n"))
	if v.Kind != Array || len(v.Array) != 2 || v.Array[0].Str != "PING" || v.Array[1].Str != "extra" {
		t.Fatalf("inline parse = %#v", v)
	}
}

func TestReadCommand(t *testing.T) {
	args, err := ReadCommand(bufio.NewReader(bytes.NewReader(EncodeCommand("CONFIG", "SET", "dir", "/tmp"))))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CONFIG", "SET", "dir", "/tmp"}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("ReadCommand = %v, want %v", args, want)
	}
}

func TestBulkLengthBounds(t *testing.T) {
	_, err := ReadValue(bufio.NewReader(strings.NewReader("$99999999999\r\n")))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized bulk: %v", err)
	}
	_, err = ReadValue(bufio.NewReader(strings.NewReader("$-7\r\n")))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("negative bulk: %v", err)
	}
	_, err = ReadValue(bufio.NewReader(strings.NewReader("*999999\r\n")))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized array: %v", err)
	}
}

func TestBulkMissingCRLF(t *testing.T) {
	_, err := ReadValue(bufio.NewReader(strings.NewReader("$3\r\nabcXY")))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("bulk without CRLF: %v", err)
	}
}

// allocated reports the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNestingBounded: arrays nest at most MaxDepth deep. A reply nests
// two deep at most, while a peer nesting *1 a hundred thousand times
// would otherwise recurse until the stack overflowed, a fatal error no
// recover catches.
func TestNestingBounded(t *testing.T) {
	nest := func(depth int) []byte {
		v := Bulk("x")
		for i := 0; i < depth; i++ {
			v = Arr(v)
		}
		return Encode(nil, v)
	}
	parse(t, nest(MaxDepth))
	if _, err := ReadValue(bufio.NewReader(bytes.NewReader(nest(MaxDepth + 1)))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("%d-deep arrays: %v, want ErrProtocol", MaxDepth+1, err)
	}
	deep := strings.Repeat("*1\r\n", 150_000)
	if _, err := ReadValue(bufio.NewReader(strings.NewReader(deep))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("150,000-deep arrays: %v, want ErrProtocol", err)
	}
}

// TestDeclaredLengthsCostNothing: an array's declared length allocates
// nothing until its elements arrive. 28 KB of nested *1024 headers once
// made the decoder hold 262 MB of empty element slots.
func TestDeclaredLengthsCostNothing(t *testing.T) {
	in := strings.Repeat("*1024\r\n", 4001)
	var err error
	n := allocated(func() { _, err = ReadValue(bufio.NewReader(strings.NewReader(in))) })
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("nested *1024 headers: %v, want ErrProtocol", err)
	}
	if n > 4<<20 {
		t.Fatalf("%d bytes of headers allocated %d bytes, want under 4 MiB", len(in), n)
	}
}

// TestBulkBareHeaderBounded: a bulk string header declaring MaxBulkLen
// followed by EOF costs the reader its read-ahead, not the 1 MiB it
// declares. Seventeen bytes once pinned 1,061,008.
func TestBulkBareHeaderBounded(t *testing.T) {
	in := "$" + strconv.Itoa(MaxBulkLen) + "\r\n"
	hptest.CheckBareHeader(t, func() error {
		_, err := ReadValue(bufio.NewReader(strings.NewReader(in)))
		return err
	})
}

// repeatReader yields its byte forever.
type repeatReader byte

func (b repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestLongLineRejected: a line longer than MaxInlineLen is refused once
// MaxInlineLen bytes are read, whether the newline comes later or the
// peer hangs up first, and the longest line allowed still parses.
func TestLongLineRejected(t *testing.T) {
	line := func(tail string) io.Reader {
		return io.MultiReader(strings.NewReader("+"), io.LimitReader(repeatReader('a'), 32<<20), strings.NewReader(tail))
	}
	for _, tail := range []string{"\r\n", ""} {
		var err error
		n := allocated(func() { _, err = ReadValue(bufio.NewReader(line(tail))) })
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("32 MiB line ending %q: %v, want ErrProtocol", tail, err)
		}
		if n > 4<<20 {
			t.Fatalf("32 MiB line ending %q allocated %d bytes, want under 4 MiB", tail, n)
		}
	}
	longest := "+" + strings.Repeat("a", MaxInlineLen) + "\r\n"
	if v := parse(t, []byte(longest)); len(v.Str) != MaxInlineLen {
		t.Fatalf("longest line read back %d bytes, want %d", len(v.Str), MaxInlineLen)
	}
}

// genValue builds a random RESP value of bounded depth for the
// property-based round-trip test.
func genValue(r *rand.Rand, depth int) Value {
	kind := r.Intn(5)
	if depth <= 0 && kind == 4 {
		kind = 3
	}
	cleanStr := func() string {
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	switch kind {
	case 0:
		return Simple(cleanStr())
	case 1:
		return Err("ERR " + cleanStr())
	case 2:
		return Int(int64(r.Uint64()))
	case 3:
		if r.Intn(8) == 0 {
			return NullBulk()
		}
		// Bulk strings may contain any bytes, including CRLF.
		n := r.Intn(64)
		b := make([]byte, n)
		r.Read(b)
		return Bulk(string(b))
	default:
		n := r.Intn(4)
		if n == 0 {
			return Arr() // decode yields a nil Array for *0
		}
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = genValue(r, depth-1)
		}
		return Arr(vs...)
	}
}

// Property: Encode→ReadValue is the identity on arbitrary RESP values.
func TestRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		want := genValue(r, 3)
		got, err := ReadValue(bufio.NewReader(bytes.NewReader(Encode(nil, want))))
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Set("a", "1")
	s.Set("b", "2")
	s.SetHash("h", map[string]string{"f": "v"})
	if v, ok := s.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if got := s.Type("h"); got != "hash" {
		t.Fatalf("Type(h) = %q", got)
	}
	if got := s.Type("missing"); got != "none" {
		t.Fatalf("Type(missing) = %q", got)
	}
	if got := s.Keys("*"); !reflect.DeepEqual(got, []string{"a", "b", "h"}) {
		t.Fatalf("Keys(*) = %v", got)
	}
	if got := s.Keys("a*"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Keys(a*) = %v", got)
	}
	if n := s.Del("a", "zz"); n != 1 {
		t.Fatalf("Del = %d", n)
	}
	if n := s.Exists("b", "h", "a"); n != 2 {
		t.Fatalf("Exists = %d", n)
	}
	s.Flush()
	if s.Len() != 0 {
		t.Fatalf("Len after Flush = %d", s.Len())
	}
}

func TestStoreConfig(t *testing.T) {
	s := NewStore()
	if v, ok := s.ConfigGet("dir"); !ok || v != "/var/lib/redis" {
		t.Fatalf("ConfigGet(dir) = %q, %v", v, ok)
	}
	s.ConfigSet("DIR", "/root/.ssh")
	if v, _ := s.ConfigGet("dir"); v != "/root/.ssh" {
		t.Fatalf("ConfigGet after set = %q", v)
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*", "anything", true},
		{"", "anything", true},
		{"user:*", "user:17", true},
		{"user:*", "account:17", false},
		{"*.rdb", "dump.rdb", true},
		{"exact", "exact", true},
		{"exact", "exactX", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pat, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}
