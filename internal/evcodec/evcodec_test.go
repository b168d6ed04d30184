package evcodec

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wire"
)

func testEvent(i int) core.Event {
	return core.Event{
		Time: time.Unix(1700000000+int64(i), int64(i)*1001).UTC(),
		Src:  netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)}), uint16(40000+i%1000)),
		Honeypot: core.Info{
			DBMS: core.MySQL, Level: core.Low, Port: 3306,
			Instance: i % 7, Config: core.ConfigDefault, Group: core.GroupMulti,
			VM: "vm-1", Region: "eu",
		},
		Kind:    core.EventLogin,
		User:    fmt.Sprintf("user%d", i),
		Pass:    fmt.Sprintf("pass%d", i),
		OK:      i%3 == 0,
		Command: "SHOW DATABASES",
		Raw:     "\x16\x03\x01 raw bytes",
	}
}

func testEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = testEvent(i)
	}
	return evs
}

// randomEvent draws an event whose every field varies, including IPv6
// sources and strings from empty to a few KB.
func randomEvent(rng *rand.Rand) core.Event {
	str := func(max int) string {
		b := make([]byte, rng.IntN(max+1))
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		return string(b)
	}
	var addr netip.Addr
	if rng.IntN(2) == 0 {
		addr = netip.AddrFrom4([4]byte{byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256))})
	} else {
		var a [16]byte
		for i := range a {
			a[i] = byte(rng.UintN(256))
		}
		addr = netip.AddrFrom16(a).Unmap()
	}
	return core.Event{
		Time: time.Unix(0, rng.Int64()).UTC(),
		Src:  netip.AddrPortFrom(addr, uint16(rng.UintN(1<<16))),
		Honeypot: core.Info{
			DBMS: str(16), Level: core.Level(rng.UintN(256)),
			Port: int(rng.Uint32()), Instance: int(rng.Uint32()),
			Config: str(8), Group: str(8),
			VM: str(8), Region: str(8),
		},
		Kind:    core.EventKind(rng.UintN(256)),
		User:    str(32),
		Pass:    str(32),
		OK:      rng.IntN(2) == 0,
		Command: str(256),
		Raw:     str(4096),
	}
}

// encode frames events as one batch body, as the relay and the WAL do.
func encode(seq uint64, events []core.Event) (body []byte, rawLen int) {
	p := Compress(events)
	defer p.Release()
	w := wire.NewWriter(0)
	AppendPayload(w, seq, p)
	return w.Bytes(), p.RawLen
}

// frame builds a batch body around comp with arbitrary declared fields,
// for bodies Compress would never emit.
func frame(seq uint64, count, rawLen int, comp []byte, crc uint32) []byte {
	p := Payload{Comp: comp, RawLen: rawLen, Count: count, CRC: crc}
	return append(p.AppendHead(nil, seq), comp...)
}

// stored returns raw as the stream flate's NoCompression writer emits.
func stored(t testing.TB, raw []byte) []byte {
	t.Helper()
	return reference(t, raw, flate.NoCompression)
}

// reference compresses raw with a fresh flate writer at level.
func reference(t testing.TB, raw []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrips lists every way a batch body reaches ReadBatch: the stored
// blocks Compress writes, and payloads the stdlib flate writer produced
// at other levels — BestSpeed is what relay frames from earlier builds
// carry, and the rest are what WAL segments written with -store
// compress=speed|best hold.
var roundTrips = []struct {
	name   string
	encode func(t testing.TB, seq uint64, events []core.Event) (body []byte, rawLen int)
}{
	{"stored", func(_ testing.TB, seq uint64, events []core.Event) ([]byte, int) { return encode(seq, events) }},
	{"huffman", stdlib(flate.HuffmanOnly)},
	{"speed", stdlib(flate.BestSpeed)},
	{"flate-default", stdlib(flate.DefaultCompression)},
	{"best", stdlib(flate.BestCompression)},
}

// stdlib frames a payload a fresh stdlib flate writer compressed at
// level.
func stdlib(level int) func(testing.TB, uint64, []core.Event) ([]byte, int) {
	return func(t testing.TB, seq uint64, events []core.Event) ([]byte, int) {
		var raw []byte
		for _, e := range events {
			raw = appendEvent(raw, e)
		}
		comp := reference(t, raw, level)
		return frame(seq, len(events), len(raw), comp, crc32.ChecksumIEEE(comp)), len(raw)
	}
}

func TestRoundTrip(t *testing.T) {
	big := testEvents(4)
	for i := range big {
		big[i].Raw = strings.Repeat(string(rune('a'+i)), 50000)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	batches := [][]core.Event{testEvents(1), testEvents(3), testEvents(500), big}
	for i := 0; i < 100; i++ {
		evs := make([]core.Event, 1+rng.IntN(40))
		for j := range evs {
			evs[j] = randomEvent(rng)
		}
		batches = append(batches, evs)
	}
	for _, rt := range roundTrips {
		t.Run(rt.name, func(t *testing.T) {
			for i, evs := range batches {
				body, rawLen := rt.encode(t, uint64(i+1), evs)
				seq, got, gotRaw, err := ReadBatch(wire.NewReader(body), Limits{})
				if err != nil {
					t.Fatalf("batch %d: ReadBatch: %v", i, err)
				}
				if seq != uint64(i+1) || gotRaw != rawLen {
					t.Fatalf("batch %d: seq %d raw %d, want %d and %d", i, seq, gotRaw, i+1, rawLen)
				}
				if !reflect.DeepEqual(got, evs) {
					t.Fatalf("batch %d: events differ after the round trip", i)
				}
			}
			if _, rawLen := rt.encode(t, 1, big); rawLen <= 3*maxStoredBlock {
				t.Fatalf("big batch is %d raw bytes; it must span several stored blocks", rawLen)
			}
		})
	}
}

// TestConcurrentRoundTrip shares the buffer and inflater pools between
// goroutines, as the relay and the WAL appenders do; run it with -race.
func TestConcurrentRoundTrip(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				evs := testEvents(1 + (g+i)%5)
				body, _ := encode(uint64(i), evs)
				_, got, _, err := ReadBatch(wire.NewReader(body), Limits{})
				if err != nil || !reflect.DeepEqual(got, evs) {
					t.Errorf("goroutine %d, batch %d: round trip failed: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoredMatchesFlate pins writeStored to compress/flate's own
// stored-block writer, so segments, spools and CRCs written by either
// are byte-identical.
func TestStoredMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 100, maxStoredBlock - 1, maxStoredBlock, maxStoredBlock + 1,
		2 * maxStoredBlock, 2*maxStoredBlock + 1, 200000} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(rng.UintN(256))
		}
		var got bytes.Buffer
		writeStored(&got, raw)
		if want := stored(t, raw); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%d raw bytes: writeStored emits %d bytes, flate %d, contents differ", n, got.Len(), len(want))
		}
	}
}

// TestCompressMatchesFreshWriter checks that Compress, with its pooled
// buffers, emits exactly what a fresh NoCompression flate writer emits
// over the same encoding, whatever batch ran before.
func TestCompressMatchesFreshWriter(t *testing.T) {
	for round := 0; round < 2; round++ {
		for _, n := range []int{1, 3, 300} {
			evs := testEvents(n)
			var raw []byte
			for _, e := range evs {
				raw = appendEvent(raw, e)
			}
			p := Compress(evs)
			want := stored(t, raw)
			if !bytes.Equal(p.Comp, want) || p.CRC != crc32.ChecksumIEEE(want) || p.RawLen != len(raw) || p.Count != n {
				t.Errorf("round %d, %d events: payload differs from a fresh flate writer's", round, n)
			}
			p.Release()
		}
	}
}

func TestReadBatchRejects(t *testing.T) {
	evs := testEvents(3)
	var raw []byte
	for _, e := range evs {
		raw = appendEvent(raw, e)
	}
	comp := stored(t, raw)
	crc := crc32.ChecksumIEEE(comp)
	valid := frame(7, len(evs), len(raw), comp, crc)
	if _, got, _, err := ReadBatch(wire.NewReader(valid), Limits{}); err != nil || !reflect.DeepEqual(got, evs) {
		t.Fatalf("hand-framed valid batch: %v", err)
	}
	extra := append(append([]byte(nil), raw...), 0xee)
	extraComp := stored(t, extra)
	garbage := []byte("definitely not a flate stream")
	cases := []struct {
		name string
		body []byte
		lim  Limits
		want error
	}{
		{"bad CRC", frame(7, len(evs), len(raw), comp, crc^1), Limits{}, ErrChecksum},
		{"raw size over the limit", frame(7, len(evs), len(raw), comp, crc), Limits{MaxRaw: len(raw) - 1}, wire.ErrFrameTooLarge},
		{"raw size over the default", frame(7, 1, DefaultMaxRaw+1, comp, crc), Limits{}, wire.ErrFrameTooLarge},
		{"inflates past its declaration", frame(7, len(evs), len(raw)-1, comp, crc), Limits{}, ErrCorrupt},
		{"inflates short of its declaration", frame(7, len(evs), len(raw)+1, comp, crc), Limits{}, ErrCorrupt},
		{"trailing payload bytes", frame(7, len(evs), len(extra), extraComp, crc32.ChecksumIEEE(extraComp)), Limits{}, ErrCorrupt},
		{"fewer events than declared", frame(7, len(evs)+1, len(raw), comp, crc), Limits{}, ErrCorrupt},
		{"more events than declared", frame(7, len(evs)-1, len(raw), comp, crc), Limits{}, ErrCorrupt},
		{"zero events", frame(7, 0, len(raw), comp, crc), Limits{}, ErrCorrupt},
		{"events over the limit", frame(7, len(evs), len(raw), comp, crc), Limits{MaxEvents: len(evs) - 1}, ErrCorrupt},
		{"not flate", frame(7, 1, 10, garbage, crc32.ChecksumIEEE(garbage)), Limits{}, ErrCorrupt},
		{"truncated flate", frame(7, len(evs), len(raw), comp[:len(comp)-3], crc32.ChecksumIEEE(comp[:len(comp)-3])), Limits{}, ErrCorrupt},
		{"truncated header", valid[:19], Limits{}, ErrCorrupt},
		{"empty", nil, Limits{}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got, _, err := ReadBatch(wire.NewReader(tc.body), tc.lim)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got != nil {
				t.Fatalf("returned %d events alongside the error", len(got))
			}
		})
	}
}

// TestReadBatchDropsLargeBuffers checks a batch larger than
// maxPooledInflate does not leave its inflate buffer in the pool.
func TestReadBatchDropsLargeBuffers(t *testing.T) {
	evs := testEvents(1)
	evs[0].Raw = strings.Repeat("x", maxPooledInflate)
	body, _ := encode(1, evs)
	if _, _, _, err := ReadBatch(wire.NewReader(body), Limits{}); err != nil {
		t.Fatal(err)
	}
	inf := inflaters.Get().(*inflater)
	defer inflaters.Put(inf)
	if c := inf.out.Cap(); c > maxPooledInflate {
		t.Fatalf("pooled inflate buffer holds %d bytes, cap %d", c, maxPooledInflate)
	}
}

// TestCompressAllocs bounds what each Compress allocates once its
// buffers are pooled: a batch of three events must not cost a fresh
// encode or payload buffer.
func TestCompressAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const calls = 1000
	const budget = 64 << 10 // bytes per call
	evs := testEvents(3)
	compress := func() {
		p := Compress(evs)
		p.Release()
	}
	compress()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		compress()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= budget {
		t.Fatalf("Compress allocates %d bytes per call, budget %d", per, budget)
	}
}

// BenchmarkCodec times one brute-force-sized batch (three events)
// through each direction.
func BenchmarkCodec(b *testing.B) {
	evs := testEvents(3)
	b.Run("op=encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			p := Compress(evs)
			p.Release()
		}
		b.ReportMetric(float64(b.N)*float64(len(evs))/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("op=decode", func(b *testing.B) {
		body, _ := encode(1, evs)
		b.ReportAllocs()
		for b.Loop() {
			if _, _, _, err := ReadBatch(wire.NewReader(body), Limits{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(evs))/b.Elapsed().Seconds(), "events/s")
	})
}
