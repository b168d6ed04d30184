package relay

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"decoydb/internal/wal"
)

// TestLedgerModel drives the real ledger, over a real spool WAL, and
// three collectors, each with its real farmState dedup, through random
// sequences of the steps a farm→collector tier goes through: offer
// events, connect, write (some writes fail), deliver, ack (a quarter of
// the acks' compactions fail), flush, disconnect, re-rank the endpoint
// set, and crash the farm — clean or hard — then reopen the journal and
// reload. A fake clock advances by a random 0–2 ms each step, so the
// frame linger both holds and releases pending events. A quarter of the
// crashes on a journal wipe its directory first, as a replaced disk or
// a farm name reused on a new host does: the new process starts a new
// sequence space with nothing to replay.
// A reference model tracks which collector each frame was handed to
// and which events each collector ingested, and every step is checked
// against it. A quarter of the seeds run without a journal, as decoydb
// does without -store: there a crash loses the spool. In a third of
// them one collector rejects every frame over 300 raw bytes, as a
// collector that cannot ingest them would, so the frames pinned to it
// reach the retry cap.
func TestLedgerModel(t *testing.T) {
	seeds, steps := 60, 1000
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m := newLedgerModel(t, seed, seed%4 != 0)
			for i := 0; i < steps; i++ {
				m.step()
				m.check()
			}
			m.drain()
			m.checkFates()
		})
	}
}

// frameKey names one frame across the model's lifetime: the sequence
// space it was cut in, and its sequence. A journaled spool's sequence
// space survives restarts until the journal is wiped; an in-memory
// spool starts a new one on every restart.
type frameKey struct{ space, seq uint64 }

// modelCollector is one collector: an address, the largest raw size of
// a frame it accepts (0 for any), and the real dedup state for the one
// farm.
type modelCollector struct {
	addr   string
	maxRaw int
	fs     farmState
}

// modelConn is one connection: frames the farm wrote that the collector
// has not read yet, and acks the collector wrote that the farm has not
// read yet.
type modelConn struct {
	coll   *modelCollector
	epoch  uint64
	space  uint64
	frames [][]byte
	acks   []uint64
}

type ledgerModel struct {
	t       *testing.T
	rng     *rand.Rand
	durable bool
	dir     string
	opts    ForwardOptions
	log     *wal.Log
	spool   *flakySpool
	l       *ledger
	space   uint64    // the current sequence space; see frameKey
	now     time.Time // the fake clock
	lastCut time.Time // when the current ledger's next last cut a partial frame

	colls []*modelCollector
	live  []*modelCollector // current endpoint set
	conn  *modelConn
	stale *modelConn // a crashed process's connection, still draining into its collector

	events   int // events offered so far; an event's id is its index
	offered  int // events offered to the current ledger
	reloaded int // events the current ledger reloaded from the journal

	handedTo   map[frameKey]string // the collector each frame was first handed to
	ingestedBy map[frameKey]string
	ingested   map[int]int    // event id → times ingested
	fate       map[int]string // event id → "shed", "dropped" or "lost"
}

func newLedgerModel(t *testing.T, seed int64, durable bool) *ledgerModel {
	rng := rand.New(rand.NewSource(seed))
	m := &ledgerModel{
		t: t, rng: rng, durable: durable,
		dir: filepath.Join(t.TempDir(), "spool"),
		opts: ForwardOptions{
			FrameEvents: 1 + rng.Intn(6),
			SpoolBytes:  2048 + rng.Int63n(6144),
		}.withDefaults(),
		now:        time.Unix(1700000000, 0),
		handedTo:   map[frameKey]string{},
		ingestedBy: map[frameKey]string{},
		ingested:   map[int]int{},
		fate:       map[int]string{},
	}
	for i := 0; i < 3; i++ {
		m.colls = append(m.colls, &modelCollector{addr: fmt.Sprintf("c%d", i)})
	}
	if seed%3 == 0 {
		// The third collector rejects frames of three or more events
		// once it has decoded them, so the frames pinned to it reach
		// the retry cap.
		m.colls[2].maxRaw = 300
	}
	m.live = m.colls
	m.start()
	return m
}

// start runs a fresh farm process: a new ledger, which reloads the
// journal when there is one and settles the epoch.
func (m *ledgerModel) start() {
	m.opts.SpoolWAL = nil
	if m.durable {
		l, err := wal.Open(wal.Options{Dir: m.dir, Sync: wal.SyncOff, SegmentBytes: 4096})
		if err != nil {
			m.t.Fatal(err)
		}
		m.log = l
		m.spool = &flakySpool{Log: l}
		m.opts.SpoolWAL = m.spool
	}
	m.l = newLedger(m.opts, func(string, ...any) {})
	if err := m.l.reload(uint64(m.rng.Int63()) | 1); err != nil {
		m.t.Fatal(err)
	}
	m.offered, m.reloaded = 0, int(m.l.enqueued)
	m.lastCut = time.Time{}
}

func (m *ledgerModel) step() {
	m.now = m.now.Add(time.Duration(m.rng.Intn(2001)) * time.Microsecond)
	switch r := m.rng.Intn(100); {
	case r < 20:
		m.offer(1 + m.rng.Intn(8))
	case r < 32:
		m.connect(m.live[m.rng.Intn(len(m.live))])
	case r < 55:
		m.write(m.rng.Intn(20) == 0)
	case r < 70:
		m.deliver(m.conn)
	case r < 72:
		m.deliver(m.stale)
	case r < 93:
		m.ack(m.durable && m.rng.Intn(4) == 0)
	case r < 94:
		m.flush()
	case r < 96:
		m.conn = nil
	case r < 99:
		m.rerank()
	default:
		m.crash(m.rng.Intn(2) == 0, m.rng.Intn(4) == 0)
	}
}

func (m *ledgerModel) offer(n int) {
	for i := 0; i < n; i++ {
		e := testEvent(m.events)
		m.events++
		m.offered++
		if m.l.full() {
			m.l.shedEvent(e)
			m.fate[m.events-1] = "shed"
			continue
		}
		m.l.add(e)
	}
}

func (m *ledgerModel) connect(c *modelCollector) {
	if m.conn != nil {
		return
	}
	m.conn = &modelConn{coll: c, epoch: m.l.epoch, space: m.space}
	m.l.rewind()
	c.fs.hello(m.l.epoch)
}

// write hands the connection its next frame; a failed write cuts the
// connection before any byte of the frame is read. A connection that is
// caught up gets a partial frame only once frameLinger has passed since
// the previous one, and never has pending events held past it.
func (m *ledgerModel) write(fail bool) {
	if m.conn == nil {
		return
	}
	addr := m.conn.coll.addr
	before, dropped, pending := slices.Clone(m.l.spool), m.l.droppedFr, len(m.l.pending)
	fr, wait := m.l.next(addr, m.now)
	since := m.now.Sub(m.lastCut)
	switch {
	case len(m.l.pending) < pending:
		if since < frameLinger {
			m.t.Fatalf("partial frame cut %v after the previous one, within the %v linger", since, frameLinger)
		}
		m.lastCut = m.now
	case fr == nil && pending > 0:
		if since >= frameLinger {
			m.t.Fatalf("%d pending events held %v after the previous partial frame, past the %v linger", pending, since, frameLinger)
		}
		if wait <= 0 || wait > frameLinger || wait != frameLinger-since {
			m.t.Fatalf("lingering %v after the previous partial frame, next asks to wait %v, want %v", since, wait, frameLinger-since)
		}
	}
	if (fr != nil || pending == 0) && wait != 0 {
		m.t.Fatalf("next returned frame %v with %d pending and a wait of %v", fr != nil, pending, wait)
	}
	if m.l.droppedFr != dropped {
		for _, old := range before {
			if !slices.Contains(m.l.spool, old) {
				m.setFate(old.body, "dropped")
			}
		}
		// A drop compacts, and the journal never fails it here: the mark
		// must reach the floor, or a restart reloads the dropped frame.
		if m.durable {
			if mark, floor := m.log.Mark(), m.floor(); mark != floor {
				m.t.Fatalf("a drop from %s left the journal mark at %d, floor %d", addr, mark, floor)
			}
		}
	}
	if fr == nil {
		return
	}
	k := frameKey{m.space, fr.seq}
	if prev, ok := m.handedTo[k]; ok && prev != addr {
		m.t.Fatalf("frame seq %d handed to %s after %s", fr.seq, addr, prev)
	}
	m.handedTo[k] = addr
	if fail {
		m.conn = nil
		return
	}
	m.l.sent(fr, m.now)
	m.conn.frames = append(m.conn.frames, fr.body)
}

// deliver has the collector read, dedup, ingest and ack the oldest
// frame on conn. A frame the collector rejects at decode, or one from a
// superseded session, makes it cut the connection.
func (m *ledgerModel) deliver(conn *modelConn) {
	if conn == nil || len(conn.frames) == 0 {
		return
	}
	body := conn.frames[0]
	conn.frames = conn.frames[1:]
	c := conn.coll
	cut := func() {
		if conn == m.conn {
			m.conn = nil
		} else {
			m.stale = nil
		}
	}
	seq, events, rawLen, err := DecodeBatch(body)
	if err != nil {
		m.t.Fatal(err)
	}
	if c.maxRaw > 0 && rawLen > c.maxRaw {
		cut()
		return
	}
	switch c.fs.admit(conn.epoch, seq) {
	case admitSuperseded:
		if conn == m.conn {
			m.t.Fatalf("%s superseded the live connection's epoch", c.addr)
		}
		cut()
		return
	case admitFresh:
		k := frameKey{conn.space, seq}
		if by, ok := m.ingestedBy[k]; ok {
			m.t.Fatalf("frame seq %d ingested by %s and by %s", seq, by, c.addr)
		}
		m.ingestedBy[k] = c.addr
		for _, e := range events {
			id := eventID(m.t, e.User)
			if m.ingested[id]++; m.ingested[id] > 1 {
				m.t.Fatalf("event %d ingested twice (last by %s, frame seq %d)", id, c.addr, seq)
			}
		}
		c.fs.last = seq
	}
	conn.acks = append(conn.acks, seq)
}

// ack has the farm read the oldest ack on the connection. failCompact
// makes the journal refuse the compaction the ack may trigger.
func (m *ledgerModel) ack(failCompact bool) {
	if m.conn == nil || len(m.conn.acks) == 0 {
		return
	}
	seq := m.conn.acks[0]
	m.conn.acks = m.conn.acks[1:]
	addr := m.conn.coll.addr
	if failCompact {
		m.spool.failLeft = 1
	}
	before := slices.Clone(m.l.spool)
	frames, _ := m.l.ack(addr, seq, m.now)
	for _, fr := range before {
		if slices.Contains(m.l.spool, fr) {
			continue
		}
		if fr.owner != addr || fr.seq > seq {
			m.t.Fatalf("ack %d from %s pruned frame seq %d pinned to %q", seq, addr, fr.seq, fr.owner)
		}
	}
	if m.durable {
		failed := failCompact && m.spool.failLeft == 0
		m.spool.failLeft = 0
		if frames > 0 && !failed {
			if mark, floor := m.log.Mark(), m.floor(); mark != floor {
				m.t.Fatalf("ack %d from %s left the journal mark at %d, floor %d", seq, addr, mark, floor)
			}
		}
	}
}

// flush cuts the pending tail at once, as ForwardSink.Flush does
// without waiting out the linger.
func (m *ledgerModel) flush() {
	m.l.cut()
	if n := len(m.l.pending); n != 0 {
		m.t.Fatalf("flush left %d events pending", n)
	}
}

// rerank swaps the endpoint set for a random non-empty subset of the
// tier; like SetEndpoints, a real change kicks the connection.
func (m *ledgerModel) rerank() {
	var live []*modelCollector
	for len(live) == 0 {
		for _, c := range m.colls {
			if m.rng.Intn(2) == 0 {
				live = append(live, c)
			}
		}
	}
	if !slices.Equal(live, m.live) {
		m.conn = nil
	}
	m.live = live
}

// crash ends the farm process and starts a new one. A clean crash is
// Close: it cuts the pending tail first, which a journaled spool keeps.
// A hard crash loses the pending tail; without a journal, either loses
// the spool too, and so does a wiped journal. The connection is left
// draining into its collector.
func (m *ledgerModel) crash(clean, wipe bool) {
	wipe = wipe && m.durable
	if clean {
		m.flush()
	}
	for _, e := range m.l.pending {
		m.fate[eventID(m.t, e.User)] = "lost"
	}
	if !m.durable || wipe {
		for _, fr := range m.l.spool {
			m.setFate(fr.body, "lost")
		}
		m.space++
	}
	m.stale, m.conn = m.conn, nil
	old := m.l
	if m.durable {
		if err := m.log.Close(); err != nil {
			m.t.Fatal(err)
		}
	}
	if wipe {
		if err := os.RemoveAll(m.dir); err != nil {
			m.t.Fatal(err)
		}
	}
	m.start()
	if !m.durable || wipe {
		if !m.l.idle() || m.l.nextSeq != 0 {
			m.t.Fatal("a lost spool survived a crash")
		}
		return
	}
	// A restart with frames to replay keeps the epoch they were cut
	// under, so every collector keeps its dedup mark for them.
	if len(m.l.spool) > 0 && m.l.epoch != old.epoch {
		m.t.Fatalf("reload of %d frames changed the epoch %#x -> %#x", len(m.l.spool), old.epoch, m.l.epoch)
	}
	// The reload restores every spooled frame with the owner it was
	// first handed to. Frames the old process had acked but not yet
	// compacted away come back too, pinned to the collector that acked
	// them, whose dedup absorbs the re-send.
	reloaded := map[uint64]*spoolFrame{}
	for _, fr := range m.l.spool {
		reloaded[fr.seq] = fr
		owner, handed := m.handedTo[frameKey{m.space, fr.seq}]
		if fr.owner != owner {
			m.t.Fatalf("reload pinned frame seq %d to %q, first handed to %q", fr.seq, fr.owner, owner)
		}
		if !handed && !slices.ContainsFunc(old.spool, func(o *spoolFrame) bool { return o.seq == fr.seq }) {
			m.t.Fatalf("reload resurrected frame seq %d, never spooled or handed out", fr.seq)
		}
	}
	for _, fr := range old.spool {
		if got := reloaded[fr.seq]; got == nil || got.events != fr.events {
			m.t.Fatalf("reload lost spooled frame seq %d (%d events)", fr.seq, fr.events)
		}
	}
}

// drain brings the whole tier back and runs every collector in turn
// until the ledger holds nothing. The clock moves a linger per round,
// so a pending tail is cut.
func (m *ledgerModel) drain() {
	m.live, m.conn, m.stale = m.colls, nil, nil
	for round := 0; !m.l.idle(); round++ {
		if round == 1000 {
			m.t.Fatalf("tier did not drain: %d frames, %d pending", len(m.l.spool), len(m.l.pending))
		}
		m.now = m.now.Add(frameLinger)
		for _, c := range m.colls {
			m.connect(c)
			for m.conn != nil {
				n := len(m.conn.frames)
				m.write(false)
				if len(m.conn.frames) == n {
					break
				}
				m.deliver(m.conn)
				m.ack(false)
				m.check()
			}
			m.conn = nil
		}
	}
}

// check asserts the invariants that hold between any two steps.
func (m *ledgerModel) check() {
	l := m.l
	if got := l.eventsAcked + uint64(l.spoolEv) + uint64(len(l.pending)); l.enqueued != got {
		m.t.Fatalf("Enqueued %d != Acked %d + Spool %d + Pending %d", l.enqueued, l.eventsAcked, l.spoolEv, len(l.pending))
	}
	if in, out := uint64(m.offered+m.reloaded), l.enqueued+l.shed; in != out {
		m.t.Fatalf("offered %d + reloaded %d != enqueued %d + shed %d", m.offered, m.reloaded, l.enqueued, l.shed)
	}
	events, bytes := 0, int64(0)
	for _, fr := range l.spool {
		events += fr.events
		bytes += int64(len(fr.body)) + 4
	}
	if events != l.spoolEv || bytes != l.spoolB {
		m.t.Fatalf("spool frames hold %d events / %d bytes, counters say %d / %d", events, bytes, l.spoolEv, l.spoolB)
	}
	if m.durable {
		if mark := m.log.Mark(); mark > m.floor() {
			m.t.Fatalf("journal mark %d passed the oldest unacked frame (floor %d)", mark, m.floor())
		}
	}
}

// checkFates asserts that after the drain every offered event was
// ingested, shed, dropped at the retry cap, or lost in a crash.
func (m *ledgerModel) checkFates() {
	for id := 0; id < m.events; id++ {
		if m.ingested[id] == 0 && m.fate[id] == "" {
			m.t.Fatalf("event %d of %d was neither ingested, shed, dropped nor lost", id, m.events)
		}
	}
}

// floor is the highest sequence with no spooled frame at or below it.
func (m *ledgerModel) floor() uint64 {
	if len(m.l.spool) > 0 {
		return m.l.spool[0].seq - 1
	}
	return m.l.nextSeq
}

func (m *ledgerModel) setFate(body []byte, fate string) {
	_, events, _, err := DecodeBatch(body)
	if err != nil {
		m.t.Fatal(err)
	}
	for _, e := range events {
		m.fate[eventID(m.t, e.User)] = fate
	}
}

// eventID recovers the index testEvent encoded in the user name.
func eventID(t *testing.T, user string) int {
	id, err := strconv.Atoi(strings.TrimPrefix(user, "user"))
	if err != nil {
		t.Fatalf("unexpected user %q", user)
	}
	return id
}
