package relay

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
)

// frameLinger is the least time between two partial frames, the ones
// next cuts from fewer than FrameEvents pending events once the
// connection is caught up. It caps partial frames at 200 a second
// whatever the event rate, so under load a frame carries what the bus
// delivered over 5 ms rather than one bus batch, while an event after
// an idle spell ships at once and no event waits more than 5 ms longer
// to be framed. It is a constant, not an option: it bounds the ingest
// lag it adds, and no deployment needs another trade of frame count
// against that lag (DESIGN §9).
const frameLinger = 5 * time.Millisecond

// spoolFrame is one encoded, unacked batch. attempts counts the
// connections that wrote it as their first frame without an ack: a
// frame the collector rejects at decode always leads the
// retransmission, while frames queued behind it must not accrue blame.
//
// owner pins the frame to the address of the endpoint it was first
// handed to. Retransmits only ever go to the owner, whose dedup absorbs
// a re-send, so after a failover no other collector sees a frame the
// owner may have ingested without the ack reaching us: each event is
// ingested by exactly one collector. Pins are keyed by address, so they
// survive a SetEndpoints re-rank and, journaled, a farm restart. A
// frame whose owner is absent from the endpoint set is an orphan and
// waits for it.
type spoolFrame struct {
	seq      uint64
	events   int
	body     []byte
	attempts int
	owner    string    // endpoint address the frame is pinned to; "" = unowned
	sentAt   time.Time // last successful write; zero until first send
}

// ledger is a forwarder's frame state: the events not yet framed, the
// spool of encoded unacked frames with their pins, the frame sequence
// space and the epoch that names it, the spool WAL that journals them,
// and the counters behind Stats. It does no network I/O, starts no
// goroutine and reads no clock — the transport passes the time in — so
// every exactly-once rule
// lives here, where a model test can drive it step by step. It is not
// goroutine-safe: ForwardSink.mu guards it.
type ledger struct {
	opts ForwardOptions // with defaults applied
	logf func(format string, args ...any)

	epoch uint64 // names the sequence space; fixed by reload, then read-only
	tag   []byte // spoolTag(epoch), journaled with every spool batch

	pending     []core.Event  // not yet framed
	spool       []*spoolFrame // framed, FIFO by seq
	scanIdx     int           // next spool index the current connection considers
	charged     bool          // the current connection's first frame has been charged an attempt
	spoolEv     int
	spoolB      int64
	nextSeq     uint64    // highest assigned frame sequence
	lastCompact uint64    // highest seq successfully compacted
	lastCut     time.Time // when next last cut a partial frame; zero before any

	firstErr    error
	enqueued    uint64
	frames      uint64
	framesSent  uint64
	framesAcked uint64
	eventsAcked uint64
	wireBytes   uint64
	rawBytes    uint64
	shed        uint64
	shedUnattr  uint64
	shedSrc     *core.LRU[netip.Addr, uint64]
	droppedFr   uint64            // frames dropped at the retry cap
	ackRTT      core.DurationHist // write-to-ack round trips
}

func newLedger(opts ForwardOptions, logf func(format string, args ...any)) *ledger {
	return &ledger{opts: opts, logf: logf, shedSrc: core.NewLRU[netip.Addr, uint64](DefaultMaxShedSources)}
}

// reload adopts the durable spool: the sequence space continues the
// log's, and every frame past the ack mark is framed again into the
// spool with the owner journaled for it — so a frame pinned to
// collector A before the crash goes only to A, even while A is absent
// from Addrs.
//
// It also settles the epoch the collectors dedup the sequence space
// under. Replayed frames keep the epoch they were journaled with, so
// each collector keeps its mark and absorbs a frame whose ack was lost.
// With nothing to replay (no spool, an empty or wiped one, or one fully
// acked) or only untagged batches from an earlier build, the epoch is
// fresh: no frame can be a duplicate, and every collector resets its
// mark.
func (l *ledger) reload(fresh uint64) error {
	l.epoch = fresh
	w := l.opts.SpoolWAL
	if w == nil {
		return nil
	}
	l.nextSeq = w.LastSeq()
	l.lastCompact = w.Mark()
	owners := w.Owners()
	err := w.Replay(l.lastCompact+1, func(seq uint64, tag []byte, events []core.Event) error {
		if epoch, ok := spoolEpoch(tag); ok {
			l.epoch = epoch
		}
		body, rawLen := EncodeBatch(seq, events)
		l.enqueued += uint64(len(events))
		l.push(&spoolFrame{seq: seq, events: len(events), body: body, owner: owners[seq]}, rawLen)
		return nil
	})
	if err != nil {
		return fmt.Errorf("relay: reload spool: %w", err)
	}
	l.tag = spoolTag(l.epoch)
	if n := len(l.spool); n > 0 {
		l.logf("relay: reloaded %d unacked frames (%d events, seq %d..%d, %d pinned, epoch %#x) from spool WAL",
			n, l.spoolEv, l.spool[0].seq, l.spool[n-1].seq, len(owners), l.epoch)
	}
	return nil
}

// spoolTag is the tag the spool WAL journals with each batch: the
// epoch, 8 bytes little-endian.
func spoolTag(epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, epoch)
}

// spoolEpoch reads a spool batch tag. ok is false for anything
// spoolTag did not write: an untagged batch from an earlier build, or a
// zero epoch, which no forwarder draws.
func spoolEpoch(tag []byte) (epoch uint64, ok bool) {
	if len(tag) != 8 {
		return 0, false
	}
	epoch = binary.LittleEndian.Uint64(tag)
	return epoch, epoch != 0
}

// full reports whether the spool has reached its byte bound: its frames'
// wire bytes plus spoolFrameOverhead per frame.
func (l *ledger) full() bool {
	return l.spoolB+int64(len(l.spool))*spoolFrameOverhead >= l.opts.SpoolBytes
}

// idle reports whether nothing is pending or spooled.
func (l *ledger) idle() bool { return len(l.spool) == 0 && len(l.pending) == 0 }

// add enqueues one event, cutting a frame once FrameEvents are pending.
// It reports whether the writer has new work: the first pending event,
// or a frame cut.
func (l *ledger) add(e core.Event) bool {
	l.pending = append(l.pending, e)
	l.enqueued++
	if len(l.pending) >= l.opts.FrameEvents {
		l.cut()
		return true
	}
	return len(l.pending) == 1
}

// shedEvent counts one shed event against its source. When the
// attribution table is full, the least recently shedding source is
// evicted and its count moves to the unattributed bucket, so shed
// totals stay exact.
func (l *ledger) shedEvent(e core.Event) {
	l.shed++
	a := e.Src.Addr()
	n := l.shedSrc.Get(a)
	if n == nil {
		var evicted *uint64
		n, evicted = l.shedSrc.Add(a, 0)
		if evicted != nil {
			l.shedUnattr += *evicted
		}
	}
	*n++
}

// cut encodes pending events into spool frames, each encoded once and
// held to DefaultMaxFrame, the wire limit the collector enforces at
// decode. A batch that encodes past it is split in half until it fits —
// spooling it would poison the spool head: the collector rejects the
// frame and drops the connection, and the retransmit loop would replay
// it forever. A single event that cannot fit alone is shed with
// attribution instead. The stored payload is never smaller than the
// raw event bytes, so a frame within DefaultMaxFrame is always within
// evcodec.DefaultMaxRaw.
func (l *ledger) cut() {
	for len(l.pending) > 0 {
		n := len(l.pending)
		p := evcodec.Compress(l.pending[:n])
		for batchFrameLen(p)+4 > DefaultMaxFrame && n > 1 {
			p.Release()
			n /= 2
			p = evcodec.Compress(l.pending[:n])
		}
		if batchFrameLen(p)+4 > DefaultMaxFrame {
			l.noteErr(fmt.Errorf("relay: event exceeds the %d-byte frame limit (%d raw bytes)", DefaultMaxFrame, p.RawLen))
			p.Release()
			l.shedPending(1)
			continue
		}
		seq := l.nextSeq + 1
		if w := l.opts.SpoolWAL; w != nil {
			// Journal before spooling: a frame the WAL did not accept must
			// not enter the sequence space (its seq would be reused after a
			// restart and the collector would dedup-drop a different
			// batch). A failing disk degrades to accounted shedding, the
			// same contract as a full spool. The tag carries the epoch to
			// a restart that replays the batch.
			got, err := w.Append(l.pending[:n], l.tag)
			if err != nil {
				l.noteErr(err)
				l.logf("relay: spool WAL append: %v (shedding %d events)", err, n)
				p.Release()
				l.shedPending(n)
				continue
			}
			if got != seq {
				// Foreign writer on the log (ownership contract broken).
				// Resync to the WAL's sequence space — it is authoritative —
				// and frame the batch under the sequence it journaled.
				l.noteErr(fmt.Errorf("relay: spool WAL sequence skew: got %d, want %d", got, seq))
				seq = got
			}
		}
		l.nextSeq = seq
		l.push(&spoolFrame{seq: seq, events: n, body: batchFrame(seq, p)}, p.RawLen)
		p.Release()
		l.consumePending(n)
	}
}

// push appends a frame to the spool and counts it.
func (l *ledger) push(fr *spoolFrame, rawLen int) {
	l.spool = append(l.spool, fr)
	l.spoolEv += fr.events
	l.spoolB += int64(len(fr.body)) + 4
	l.frames++
	l.wireBytes += uint64(len(fr.body)) + 4
	l.rawBytes += uint64(rawLen)
}

// shedPending sheds the first n pending events with attribution,
// unwinding their enqueued count.
func (l *ledger) shedPending(n int) {
	for _, e := range l.pending[:n] {
		l.enqueued--
		l.shedEvent(e)
	}
	l.consumePending(n)
}

// consumePending removes the first n pending events.
func (l *ledger) consumePending(n int) {
	l.pending = l.pending[:copy(l.pending, l.pending[n:])]
}

func (l *ledger) noteErr(err error) {
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// rewind starts a connection: it considers the spool from the oldest
// frame again, and its first frame is charged an attempt.
func (l *ledger) rewind() {
	l.scanIdx = 0
	l.charged = false
}

// next returns the next frame the connection to addr may write at now,
// in sequence order. It skips frames pinned to other endpoints (their
// owners drain them), drops a frame at the retry cap, and charges the
// connection's first frame an attempt. Once the spool is caught up it
// cuts the pending events into a partial frame, but only when
// frameLinger has passed since its previous partial cut; until then it
// returns nil and the time left, and the caller asks again after it.
// With nothing pending it returns nil and 0. An event after an idle
// spell therefore ships at once, and under load events gather for at
// most frameLinger. An unowned frame is pinned to addr before it is
// returned, and on a durable spool the pin is journaled before any byte
// can reach the collector — so no collector can ever hold a frame the
// journal does not pin to it.
func (l *ledger) next(addr string, now time.Time) (*spoolFrame, time.Duration) {
	for {
		for l.scanIdx < len(l.spool) {
			fr := l.spool[l.scanIdx]
			if fr.owner != "" && fr.owner != addr {
				l.scanIdx++
				continue
			}
			if fr.attempts >= DefaultMaxFrameRetries {
				l.drop(l.scanIdx)
				continue
			}
			if !l.charged {
				fr.attempts++
				l.charged = true
			}
			if fr.owner == "" {
				fr.owner = addr
				if w := l.opts.SpoolWAL; w != nil {
					// A journal write that fails keeps the in-memory pin
					// and degrades the guarantee to this process's
					// lifetime — noted, never silent.
					if err := w.AppendOwner(fr.seq, addr); err != nil {
						l.noteErr(err)
						l.logf("relay: journal owner seq=%d -> %s: %v", fr.seq, addr, err)
					}
				}
			}
			l.scanIdx++
			return fr, 0
		}
		if len(l.pending) == 0 {
			return nil, 0
		}
		if wait := l.lastCut.Add(frameLinger).Sub(now); wait > 0 {
			return nil, wait
		}
		l.lastCut = now
		l.cut() // may shed an event too large for a frame; rescan
	}
}

// drop removes spool[i], a frame that led DefaultMaxFrameRetries
// connections without an ack: the collector rejects it at decode (a
// collector of another build, or corruption that survives TCP).
// Dropping it lets the spool drain instead of replaying it forever; the
// loss is counted in DroppedFrames and Shed and surfaces via Err. It
// may raise the floor, so it compacts: else the journal mark would stay
// below the dropped frame until a later ack, and a restart in between
// would reload it for another DefaultMaxFrameRetries attempts.
func (l *ledger) drop(i int) {
	fr := l.spool[i]
	l.remove(i)
	l.enqueued -= uint64(fr.events)
	l.shed += uint64(fr.events)
	l.shedUnattr += uint64(fr.events)
	l.droppedFr++
	l.noteErr(fmt.Errorf("relay: frame seq %d (%d events) dropped after %d unacked transmissions", fr.seq, fr.events, fr.attempts))
	l.logf("relay: dropping frame seq=%d (%d events) after %d unacked transmissions", fr.seq, fr.events, fr.attempts)
	l.compact()
}

// remove drops spool[i], keeping the connection's scan cursor pointing
// at the same next frame.
func (l *ledger) remove(i int) {
	fr := l.spool[i]
	l.spool = append(l.spool[:i], l.spool[i+1:]...)
	if l.scanIdx > i {
		l.scanIdx--
	}
	l.spoolEv -= fr.events
	l.spoolB -= int64(len(fr.body)) + 4
}

// sent records a completed write of fr at now.
func (l *ledger) sent(fr *spoolFrame, now time.Time) {
	l.framesSent++
	fr.sentAt = now
}

// ack applies a cumulative ACK of seq from the collector at addr and
// returns the frames and events it acknowledged. It covers exactly the
// frames pinned to addr — a cumulative sequence from one collector says
// nothing about frames another collector still owes.
func (l *ledger) ack(addr string, seq uint64, now time.Time) (frames, events int) {
	for i := 0; i < len(l.spool); {
		fr := l.spool[i]
		if fr.seq > seq {
			break
		}
		if fr.owner != addr {
			i++
			continue
		}
		l.remove(i)
		frames++
		events += fr.events
		if !fr.sentAt.IsZero() {
			l.ackRTT.Observe(now.Sub(fr.sentAt))
		}
	}
	if frames > 0 {
		l.framesAcked += uint64(frames)
		l.eventsAcked += uint64(events)
		l.compact()
	}
	return frames, events
}

// floor is the highest sequence with no unacked frame at or below it.
func (l *ledger) floor() uint64 {
	if len(l.spool) > 0 {
		return l.spool[0].seq - 1
	}
	return l.nextSeq
}

// compact persists the ack floor as a spool WAL mark and reclaims
// fully-acked segments; after a restart, Replay(Mark()+1) reloads only
// what is still unacked. The floor — not the raw acked sequence —
// because with pinned frames a later sequence can be acked by one
// collector while an earlier frame still awaits another. A mark that
// fails to persist is harmless to correctness — the frames replay under
// their epoch and the collector's dedup drops them — so the error is
// only noted; but lastCompact advances only on success, or one failed
// compaction would silence every retry at that floor and fully-acked
// segments would pile up until the process restarted.
func (l *ledger) compact() {
	w := l.opts.SpoolWAL
	if w == nil {
		return
	}
	if floor := l.floor(); floor > l.lastCompact {
		if _, err := w.Compact(floor); err != nil {
			l.noteErr(err)
		} else {
			l.lastCompact = floor
		}
	}
}

// pins counts the spooled frames pinned to each owner address.
func (l *ledger) pins() map[string]int {
	n := make(map[string]int)
	for _, fr := range l.spool {
		if fr.owner != "" {
			n[fr.owner]++
		}
	}
	return n
}

// oldestOwner returns the owner of the oldest pinned frame whose owner
// is present, or "" when there is none.
func (l *ledger) oldestOwner(present func(addr string) bool) string {
	for _, fr := range l.spool {
		if fr.owner != "" && present(fr.owner) {
			return fr.owner
		}
	}
	return ""
}

// stats fills the ledger's half of st.
func (l *ledger) stats(st *Stats) {
	st.Enqueued = l.enqueued
	st.Frames = l.frames
	st.FramesSent = l.framesSent
	st.FramesAcked = l.framesAcked
	st.EventsAcked = l.eventsAcked
	st.WireBytes = l.wireBytes
	st.RawBytes = l.rawBytes
	st.SpoolFrames = len(l.spool)
	st.SpoolEvents = l.spoolEv
	st.SpoolBytes = l.spoolB
	st.Pending = len(l.pending)
	st.Shed = l.shed
	st.ShedUnattributed = l.shedUnattr
	st.DroppedFrames = l.droppedFr
	st.AckRTT = l.ackRTT
	for a, n := range l.shedSrc.All() {
		st.Shedders = append(st.Shedders, core.SourceShed{Addr: a, Shed: *n})
	}
	st.Shedders = core.Heaviest(st.Shedders)
}
