// Package evcodec is the one binary encoding of an event batch, shared
// by the relay wire protocol (internal/relay) and the on-disk WAL
// segment format (internal/wal). Both wrap the same body — a sequence
// number, an event count, the raw size, a CRC-32 over the payload, and
// the event encoding as a flate stream — behind their own headers, so
// the farm→collector frames and the durable segments literally cannot
// drift apart: a relay frame and its spool record carry the same bytes.
//
// Like everything downstream of a honeypot, the decoder treats its
// input as hostile: every declared size is validated against Limits
// before allocation, the CRC is verified before decompression, and the
// decompressor is capped at the declared size so a zip bomb cannot
// inflate past its declaration.
//
// Compress writes one encoding, flate stored blocks: a connected farm's
// batch is mostly two or three brute-force events, too few to compress,
// and a stored block costs a copy where deflating costs a compressor.
// The price falls in a collector outage, when the relay cuts frames of
// 512 events, which deflated about 8.7x: its byte-bounded spool holds
// that many times fewer events (DESIGN §9). The decoder reads any flate
// stream, so frames and segments that earlier builds deflated still
// decode.
//
// Both directions are allocation-free per batch once warm, because
// per-batch set-up would otherwise dwarf the per-event work. Compress
// writes the stored blocks itself, byte-for-byte as
// flate.NewWriter(w, flate.NoCompression) would, into pooled buffers.
// ReadBatch reuses pooled decompressors and inflate buffers. The only
// per-batch allocations left are the decoded events and their strings,
// which the caller keeps.
package evcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"sync"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wire"
)

// Hard limits. They bound what a single batch can make a decoder
// allocate, whether the batch arrived over a routable port or from a
// segment file on disk (which may have been corrupted arbitrarily).
const (
	// DefaultMaxRaw caps the decompressed payload of one batch.
	DefaultMaxRaw = 32 << 20
	// DefaultMaxEvents caps the events declared by one batch.
	DefaultMaxEvents = 65536
	// MaxString caps any single string field inside an encoded event.
	MaxString = 1 << 20
	// MaxOwnerAddr caps the endpoint address inside an ownership record.
	// Collector addresses are host:port strings; anything longer than
	// this is corruption, not configuration.
	MaxOwnerAddr = 256
)

// maxStoredBlock is the largest stored block flate can express (its
// LEN field is 16 bits), and the size compress/flate cuts them at.
const maxStoredBlock = 1<<16 - 1

// Codec errors.
var (
	// ErrCorrupt is returned for any structurally invalid batch body.
	ErrCorrupt = errors.New("evcodec: malformed batch")
	// ErrChecksum is returned when the payload CRC does not match.
	ErrChecksum = errors.New("evcodec: payload checksum mismatch")
)

// Limits bound what ReadBatch will allocate for one batch. The zero
// value means the package defaults.
type Limits struct {
	MaxRaw    int // decompressed payload bytes (0 = DefaultMaxRaw)
	MaxEvents int // events per batch (0 = DefaultMaxEvents)
}

// WithDefaults fills zero fields with the package defaults.
func (l Limits) WithDefaults() Limits {
	if l.MaxRaw <= 0 {
		l.MaxRaw = DefaultMaxRaw
	}
	if l.MaxEvents <= 0 {
		l.MaxEvents = DefaultMaxEvents
	}
	return l
}

// Payload is an encoded event payload, ready to be framed into a batch
// body. It carries no sequence number, so it can be built outside
// whatever lock assigns sequences — the WAL encodes concurrently and
// only serialises the (cheap) framed write. Callers that consume Comp
// before returning should call Release to recycle the buffer.
type Payload struct {
	Comp   []byte // the event encoding as a flate stream
	RawLen int    // event encoding size
	Count  int    // events encoded
	CRC    uint32 // CRC-32 (IEEE) over Comp

	buf *bytes.Buffer // pooled backing store for Comp, nil if unpooled
}

// compBufs recycles payload buffers between batches.
var compBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Release recycles the payload's backing buffer. The caller must be
// done with Comp; forgetting to call it only costs a GC'd allocation.
func (p *Payload) Release() {
	if p.buf != nil {
		p.buf.Reset()
		compBufs.Put(p.buf)
		p.buf, p.Comp = nil, nil
	}
}

// HeadLen is the size of the batch-body framing AppendHead writes.
const HeadLen = 20

// AppendHead appends the HeadLen bytes of batch-body framing that
// precede the payload — sequence number, event count, raw size, payload
// CRC — and returns the extended buffer. AppendHead followed by the
// Comp bytes is exactly what AppendPayload emits.
func (p Payload) AppendHead(buf []byte, seq uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.RawLen))
	return binary.LittleEndian.AppendUint32(buf, p.CRC)
}

// rawBufs recycles the event encode buffer; it never escapes Compress,
// so pooling it removes a ~32KB alloc+clear per batch.
var rawBufs = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// Compress encodes events and writes them as a Payload of flate stored
// blocks. It cannot fail: it only copies into memory.
func Compress(events []core.Event) Payload {
	// Encode into a local slice: appending through a pointer field would
	// pay a GC write barrier on every field write, which profiles as half
	// the cost of encoding a batch.
	rawp := rawBufs.Get().(*[]byte)
	raw := (*rawp)[:0]
	for _, e := range events {
		raw = appendEvent(raw, e)
	}
	defer func() { *rawp = raw[:0]; rawBufs.Put(rawp) }()
	comp := compBufs.Get().(*bytes.Buffer)
	writeStored(comp, raw)
	return Payload{
		Comp:   comp.Bytes(),
		RawLen: len(raw),
		Count:  len(events),
		CRC:    crc32.ChecksumIEEE(comp.Bytes()),
		buf:    comp,
	}
}

// writeStored writes raw to w as flate stored blocks, byte-for-byte the
// stream flate.NewWriter(w, flate.NoCompression) emits: non-final
// blocks of at most maxStoredBlock bytes, then an empty final block.
// Every stored block starts on a byte boundary, so its header is one
// BFINAL/BTYPE byte followed by LEN and its complement NLEN, both
// 16-bit little-endian.
func writeStored(w *bytes.Buffer, raw []byte) {
	w.Grow(len(raw) + 5*(len(raw)/maxStoredBlock+2))
	for len(raw) > 0 {
		n := min(len(raw), maxStoredBlock)
		w.Write([]byte{0, byte(n), byte(n >> 8), ^byte(n), ^byte(n >> 8)})
		w.Write(raw[:n])
		raw = raw[n:]
	}
	w.Write([]byte{1, 0, 0, 0xff, 0xff})
}

// AppendPayload frames a payload as one batch body onto w: sequence
// number, event count, raw size, payload CRC, then the payload itself.
func AppendPayload(w *wire.Writer, seq uint64, p Payload) {
	w.Raw(p.AppendHead(nil, seq))
	w.Raw(p.Comp)
}

// maxPooledInflate caps the inflate buffer an inflater keeps when it
// goes back to the pool, so one large batch cannot pin its memory.
const maxPooledInflate = 1 << 20

// inflater is a reusable decompressor with its source reader, size cap
// and output buffer. The output never escapes ReadBatch: getString
// copies every string out of it.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // implements flate.Resetter
	lim io.LimitedReader
	out bytes.Buffer
}

// inflaters recycles inflaters between batches: flate.NewReader
// allocates ~45KB of history and code tables per call.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// reset points the decompressor at a new compressed payload.
func (inf *inflater) reset(comp []byte) error {
	inf.src.Reset(comp)
	if inf.fr == nil {
		inf.fr = flate.NewReader(&inf.src)
		return nil
	}
	return inf.fr.(flate.Resetter).Reset(&inf.src, nil)
}

// release drops the inflater's references to the batch and returns it
// to the pool, without its buffer if that grew past maxPooledInflate.
func (inf *inflater) release() {
	inf.src.Reset(nil)
	if inf.out.Cap() > maxPooledInflate {
		inf.out = bytes.Buffer{}
	} else {
		inf.out.Reset()
	}
	inflaters.Put(inf)
}

// ReadBatch is the symmetric inverse of AppendPayload: it consumes one
// batch body from r (through to the end of the buffer — the payload is
// whatever remains). It inflates a payload written at any flate level,
// so frames and segments earlier builds deflated still decode. Every
// declared size is validated against lim before allocation, the CRC is verified before
// decompression, and the decompressed payload must parse into exactly
// the declared event count with no bytes left over.
func ReadBatch(r *wire.Reader, lim Limits) (seq uint64, events []core.Event, rawLen int, err error) {
	lim = lim.WithDefaults()
	if seq, err = r.Uint64LE(); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	count, err := r.Uint32LE()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if count == 0 || int64(count) > int64(lim.MaxEvents) {
		return 0, nil, 0, fmt.Errorf("%w: %d events declared (limit %d)", ErrCorrupt, count, lim.MaxEvents)
	}
	declaredRaw, err := r.Uint32LE()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if int64(declaredRaw) > int64(lim.MaxRaw) {
		return 0, nil, 0, fmt.Errorf("%w: %d-byte payload declared (limit %d)", wire.ErrFrameTooLarge, declaredRaw, lim.MaxRaw)
	}
	sum, err := r.Uint32LE()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	comp := r.Rest()
	if crc32.ChecksumIEEE(comp) != sum {
		return 0, nil, 0, ErrChecksum
	}
	inf := inflaters.Get().(*inflater)
	defer inf.release()
	if err := inf.reset(comp); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	// The limit caps the decompressor at declaredRaw+1: a payload that
	// inflates past its declaration is rejected without allocating more
	// than one extra byte past the bound. The headroom past that byte
	// lets ReadFrom see EOF without growing the buffer.
	inf.lim = io.LimitedReader{R: inf.fr, N: int64(declaredRaw) + 1}
	inf.out.Grow(int(declaredRaw) + 1 + bytes.MinRead)
	n, err := inf.out.ReadFrom(&inf.lim)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	if n != int64(declaredRaw) {
		return 0, nil, 0, fmt.Errorf("%w: payload inflates to %d bytes, declared %d", ErrCorrupt, n, declaredRaw)
	}
	er := wire.NewReader(inf.out.Bytes())
	events = make([]core.Event, 0, count)
	for i := uint32(0); i < count; i++ {
		e, err := decodeEvent(er)
		if err != nil {
			return 0, nil, 0, fmt.Errorf("%w: event %d: %v", ErrCorrupt, i, err)
		}
		events = append(events, e)
	}
	if er.Len() != 0 {
		return 0, nil, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, er.Len())
	}
	return seq, events, int(declaredRaw), nil
}

// AppendOwner appends the body of a frame-ownership record — the spool
// sequence number and the collector address the frame is pinned to
// (empty = pin released) — shared by the relay's durable spool and the
// WAL's owner records so the two cannot drift. The address is bounded by
// MaxOwnerAddr; longer addresses are an error, never truncated (a
// truncated address would silently pin the frame to a different
// collector).
func AppendOwner(buf []byte, seq uint64, addr string) ([]byte, error) {
	if len(addr) > MaxOwnerAddr {
		return nil, fmt.Errorf("evcodec: %d-byte owner address (limit %d)", len(addr), MaxOwnerAddr)
	}
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(addr)))
	return append(buf, addr...), nil
}

// ReadOwner is the symmetric inverse of AppendOwner: it consumes one
// ownership body from r, bounding the declared address length before
// allocation. The body must end exactly at the address — trailing bytes
// are corruption.
func ReadOwner(r *wire.Reader) (seq uint64, addr string, err error) {
	if seq, err = r.Uint64LE(); err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n, err := r.Uint16LE()
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if int(n) > MaxOwnerAddr {
		return 0, "", fmt.Errorf("%w: %d-byte owner address (limit %d)", ErrCorrupt, n, MaxOwnerAddr)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Len() != 0 {
		return 0, "", fmt.Errorf("%w: %d trailing owner bytes", ErrCorrupt, r.Len())
	}
	return seq, string(b), nil
}

// appendEvent appends one event to buf in the fixed field order
// decodeEvent expects. String fields longer than MaxString are
// truncated — events are bounded upstream (core honeypots excerpt Raw),
// so truncation here is a belt-and-braces cap, not a normal path.
func appendEvent(buf []byte, e core.Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time.UnixNano()))
	a16 := e.Src.Addr().As16()
	buf = append(buf, a16[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, e.Src.Port())
	buf = appendString(buf, e.Honeypot.DBMS)
	buf = append(buf, byte(e.Honeypot.Level))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Honeypot.Port))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Honeypot.Instance))
	buf = appendString(buf, e.Honeypot.Config)
	buf = appendString(buf, e.Honeypot.Group)
	buf = appendString(buf, e.Honeypot.VM)
	buf = appendString(buf, e.Honeypot.Region)
	buf = append(buf, byte(e.Kind))
	buf = appendString(buf, e.User)
	buf = appendString(buf, e.Pass)
	if e.OK {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, e.Command)
	return appendString(buf, e.Raw)
}

// decodeEvent parses one event; every string read is bounded.
func decodeEvent(r *wire.Reader) (core.Event, error) {
	var e core.Event
	nanos, err := r.Uint64LE()
	if err != nil {
		return e, err
	}
	e.Time = time.Unix(0, int64(nanos)).UTC()
	ab, err := r.Bytes(16)
	if err != nil {
		return e, err
	}
	var a16 [16]byte
	copy(a16[:], ab)
	port, err := r.Uint16LE()
	if err != nil {
		return e, err
	}
	e.Src = netip.AddrPortFrom(netip.AddrFrom16(a16).Unmap(), port)
	if e.Honeypot.DBMS, err = getString(r); err != nil {
		return e, err
	}
	lvl, err := r.Uint8()
	if err != nil {
		return e, err
	}
	e.Honeypot.Level = core.Level(lvl)
	hpPort, err := r.Uint32LE()
	if err != nil {
		return e, err
	}
	e.Honeypot.Port = int(hpPort)
	inst, err := r.Uint32LE()
	if err != nil {
		return e, err
	}
	e.Honeypot.Instance = int(inst)
	if e.Honeypot.Config, err = getString(r); err != nil {
		return e, err
	}
	if e.Honeypot.Group, err = getString(r); err != nil {
		return e, err
	}
	if e.Honeypot.VM, err = getString(r); err != nil {
		return e, err
	}
	if e.Honeypot.Region, err = getString(r); err != nil {
		return e, err
	}
	kind, err := r.Uint8()
	if err != nil {
		return e, err
	}
	e.Kind = core.EventKind(kind)
	if e.User, err = getString(r); err != nil {
		return e, err
	}
	if e.Pass, err = getString(r); err != nil {
		return e, err
	}
	ok, err := r.Uint8()
	if err != nil {
		return e, err
	}
	e.OK = ok != 0
	if e.Command, err = getString(r); err != nil {
		return e, err
	}
	if e.Raw, err = getString(r); err != nil {
		return e, err
	}
	return e, nil
}

// appendString appends a uint32-length-prefixed string, truncated to
// MaxString.
func appendString(buf []byte, s string) []byte {
	if len(s) > MaxString {
		s = s[:MaxString]
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// getString reads a uint32-length-prefixed string, bounded by MaxString.
func getString(r *wire.Reader) (string, error) {
	n, err := r.Uint32LE()
	if err != nil {
		return "", err
	}
	if int64(n) > MaxString {
		return "", fmt.Errorf("%w: %d-byte string (limit %d)", wire.ErrFrameTooLarge, n, MaxString)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
