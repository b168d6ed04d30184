// Package relay is the farm→collector event transport: it ships event
// batches from a live honeypot deployment (cmd/decoydb) to a central
// analysis host (cmd/dbcollect) over TCP, the role the paper's log
// shipping plays for its 278 distributed sensors.
//
// The wire protocol is deliberately small: length-prefixed frames (via
// internal/wire, with hard size limits — the collector port is itself
// Internet-facing), a magic/version header, and a batch body that is
// the shared internal/evcodec encoding: a per-frame sequence number, a
// CRC over the payload, and the events as flate stored blocks — the
// same bytes the durable spool WAL writes to disk for the frame. A
// connection opens with a HELLO frame carrying a shared token, the
// farm's name and the epoch that names its sequence space; the
// collector answers each BATCH frame with a cumulative ACK once the
// batch has been handed to its local sinks.
//
//	farm ──HELLO──▶ collector
//	farm ──BATCH seq=1..n──▶ collector
//	farm ◀──ACK seq───────── collector
//
// Delivery is at-least-once: the forwarder retransmits every unacked
// frame after a reconnect, and the collector dedups on (farm, epoch,
// sequence), so a collector outage costs buffering (and, once the spool
// is full, per-source-accounted shedding) but never double counting and
// never a silently discarded session. The epoch changes exactly when
// the sequence space starts over: a reconnect keeps it, and so does a
// restart that replays frames from a durable spool (the spool journals
// the epoch with every batch), so the collector keeps its dedup mark
// and a crash-replayed frame can never double-ingest. A process with
// nothing to replay draws a fresh epoch, and the collector resets the
// mark.
package relay

import (
	"errors"
	"fmt"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
	"decoydb/internal/wire"
)

// Magic opens every relay frame ("DRLY").
const Magic uint32 = 0x44524c59

// Version is the wire-format version. A collector refuses frames from a
// different version instead of guessing. Version 2 added the session
// epoch to the HELLO frame; version 3 added a HELLO flags byte, which
// version 4 removed again: the epoch alone names the sequence space.
const Version = 4

// Frame types.
const (
	frameHello = 1
	frameBatch = 2
	frameAck   = 3
)

// Hard limits. They bound what a single frame can make either endpoint
// allocate; both sides of the protocol face untrusted peers (the
// collector listens on a routable port, the forwarder dials an address
// from its configuration). The batch-body limits are the shared codec's.
const (
	// DefaultMaxFrame caps one frame on the wire.
	DefaultMaxFrame = 4 << 20
	// DefaultMaxBatchEvents caps the events declared by one batch frame.
	DefaultMaxBatchEvents = evcodec.DefaultMaxEvents
	// MaxName caps the token and farm-name fields of a HELLO frame.
	// NewForwardSink and NewCollector reject longer values outright —
	// truncating at encode time would silently break authentication.
	MaxName = 256
)

// Read caps for the two control frames. A HELLO comes from a peer not
// yet authenticated: capping its read at the largest valid HELLO cuts a
// peer that declares more at once, instead of holding the connection
// open for up to DefaultHelloTimeout while the bytes trickle in.
const (
	// maxHelloFrame is the largest valid HELLO body: header, token and
	// farm name with their uint16 length prefixes, and epoch.
	maxHelloFrame = 6 + 2 + MaxName + 2 + MaxName + 8
	// maxAckFrame is the size of an ACK body: header and sequence.
	maxAckFrame = 6 + 8
)

// Protocol errors.
var (
	ErrBadFrame   = errors.New("relay: malformed frame")
	ErrBadVersion = errors.New("relay: unsupported protocol version")
	// ErrChecksum is the shared codec's checksum error: a batch whose
	// payload CRC does not match, wherever it was read from.
	ErrChecksum = evcodec.ErrChecksum
)

// header writes the shared magic/version/type prologue.
func header(w *wire.Writer, typ byte) *wire.Writer {
	return w.Uint32BE(Magic).Uint8(Version).Uint8(typ)
}

// readHeader validates the prologue and returns the frame type.
func readHeader(r *wire.Reader) (byte, error) {
	magic, err := r.Uint32BE()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if magic != Magic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, magic)
	}
	ver, err := r.Uint8()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if ver != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, ver, Version)
	}
	typ, err := r.Uint8()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return typ, nil
}

// encodeHello builds the connection-opening frame body. epoch names
// the forwarder's sequence space: it lets the collector tell a
// reconnect or a replaying restart (same epoch, sequence numbering
// continues) from a sequence space that started over (new epoch).
func encodeHello(token, farm string, epoch uint64) []byte {
	w := wire.NewWriter(24 + len(token) + len(farm))
	header(w, frameHello)
	putString16(w, token)
	putString16(w, farm)
	w.Uint64LE(epoch)
	return w.Bytes()
}

// decodeHello parses a HELLO body into (token, farm, epoch).
func decodeHello(body []byte) (token, farm string, epoch uint64, err error) {
	r := wire.NewReader(body)
	typ, err := readHeader(r)
	if err != nil {
		return "", "", 0, err
	}
	if typ != frameHello {
		return "", "", 0, fmt.Errorf("%w: expected hello, got type %d", ErrBadFrame, typ)
	}
	if token, err = getString16(r); err != nil {
		return "", "", 0, err
	}
	if farm, err = getString16(r); err != nil {
		return "", "", 0, err
	}
	if farm == "" {
		return "", "", 0, fmt.Errorf("%w: empty farm name", ErrBadFrame)
	}
	if epoch, err = r.Uint64LE(); err != nil {
		return "", "", 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if r.Len() != 0 {
		return "", "", 0, fmt.Errorf("%w: %d trailing bytes after hello", ErrBadFrame, r.Len())
	}
	return token, farm, epoch, nil
}

// encodeAck builds a cumulative acknowledgement: every batch with
// sequence <= seq has been handed to the collector's sinks.
func encodeAck(seq uint64) []byte {
	w := wire.NewWriter(16)
	header(w, frameAck)
	w.Uint64LE(seq)
	return w.Bytes()
}

// decodeAck parses an ACK body.
func decodeAck(body []byte) (uint64, error) {
	r := wire.NewReader(body)
	typ, err := readHeader(r)
	if err != nil {
		return 0, err
	}
	if typ != frameAck {
		return 0, fmt.Errorf("%w: expected ack, got type %d", ErrBadFrame, typ)
	}
	seq, err := r.Uint64LE()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if r.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after ack", ErrBadFrame, r.Len())
	}
	return seq, nil
}

// EncodeBatch encodes events as one BATCH frame body: the relay header
// followed by the shared evcodec batch body. It returns the frame body
// and the raw event-encoding size.
func EncodeBatch(seq uint64, events []core.Event) (body []byte, rawLen int) {
	p := evcodec.Compress(events)
	defer p.Release()
	return batchFrame(seq, p), p.RawLen
}

// batchFrame frames payload p under seq as a BATCH frame body.
func batchFrame(seq uint64, p evcodec.Payload) []byte {
	w := wire.NewWriter(batchFrameLen(p))
	header(w, frameBatch)
	evcodec.AppendPayload(w, seq, p)
	return w.Bytes()
}

// batchFrameLen is the length of the BATCH frame body batchFrame builds
// around p: the 6-byte relay header, the batch-body head and p.
func batchFrameLen(p evcodec.Payload) int {
	return 6 + evcodec.HeadLen + len(p.Comp)
}

// DecodeBatch is the symmetric inverse of EncodeBatch, and also reads
// the deflated payloads of farms built before frames carried stored
// blocks. Every declared size is validated against the shared codec's
// hard limits, the CRC is verified before inflating, and the payload
// must parse into exactly the declared event count with no bytes left
// over.
func DecodeBatch(body []byte) (seq uint64, events []core.Event, rawLen int, err error) {
	r := wire.NewReader(body)
	typ, err := readHeader(r)
	if err != nil {
		return 0, nil, 0, err
	}
	if typ != frameBatch {
		return 0, nil, 0, fmt.Errorf("%w: expected batch, got type %d", ErrBadFrame, typ)
	}
	seq, events, rawLen, err = evcodec.ReadBatch(r)
	if err != nil {
		if errors.Is(err, evcodec.ErrCorrupt) {
			// Keep the package's historical error shape: structural
			// corruption surfaces as ErrBadFrame (the codec error rides
			// along in the chain for detail).
			return 0, nil, 0, fmt.Errorf("%w: %w", ErrBadFrame, err)
		}
		return 0, nil, 0, err
	}
	return seq, events, rawLen, nil
}

// putString16 appends a uint16-length-prefixed short string (hello
// fields). Values longer than MaxName are rejected by the constructors,
// so the defensive truncation here is unreachable on any supported path.
func putString16(w *wire.Writer, s string) {
	if len(s) > MaxName {
		s = s[:MaxName]
	}
	w.Uint16LE(uint16(len(s)))
	w.String(s)
}

// getString16 reads a uint16-length-prefixed short string, bounded by
// MaxName.
func getString16(r *wire.Reader) (string, error) {
	n, err := r.Uint16LE()
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if int(n) > MaxName {
		return "", fmt.Errorf("%w: %d-byte name (limit %d)", wire.ErrFrameTooLarge, n, MaxName)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return string(b), nil
}
