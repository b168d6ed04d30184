// Package evstore is the queryable event store at the end of the paper's
// data pipeline (Figure 1). The paper converted heterogeneous honeypot
// logs into SQLite databases enriched with GeoIP/ASN data; evstore plays
// that role as an embedded, typed store designed around the analyses the
// paper runs: per-IP activity records, per-hour unique-client series,
// aggregated login/credential counts, and bounded command sequences for
// classification and clustering.
//
// Login events are aggregated rather than stored row-by-row: the paper's
// dataset contains 18.16M brute-force logins from a few hundred sources,
// which aggregates losslessly into (source, honeypot, credential) counts —
// every login analysis in the paper is expressible over those counts.
//
// The store is sharded by source IP with the same hash the event bus
// uses (core.ShardOf). Each shard owns its own mutex and maps, so when
// the store's shard count matches the bus's, every delivery batch a bus
// worker commits lands in exactly one shard and ingest never contends
// across workers. Every read goes through an immutable point-in-time
// Snapshot (snapshot.go), which merges the shards, selected with the
// Query options struct (query.go); sharding by source makes the shards
// disjoint address sets, so unique-count merges are plain sums.
//
// Snapshots are copy-on-write. Each shard carries a generation that
// Snapshot bumps; the snapshot takes the shard's records by reference,
// and the shard clones a record from an older generation the first time
// it writes it. A source's low-tier connect hours are a bitmap in each of
// its activities, so that clone covers them as well. Credentials live in
// append-only per-shard rows whose keys a snapshot shares, so a snapshot
// copies only pointers and the pointer-free credential tallies.
//
// Ingest looks a source's record and activity up once per session, not
// once per event: while a shard run stays on one source and one honeypot
// grouping, each event reuses the previous event's.
package evstore

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"time"

	"decoydb/internal/asdb"
	"decoydb/internal/core"
	"decoydb/internal/geoip"
	"decoydb/internal/wal"
)

// PerKey identifies a honeypot grouping an IP interacted with.
type PerKey struct {
	DBMS   string
	Level  core.Level
	Config string
	Group  string
}

// Action is one normalised command with its raw excerpt.
type Action struct {
	Name string
	Raw  string
}

// MaxActionsPerActivity bounds the command sequence kept per (IP,
// honeypot) pair; longer sessions keep counting but stop appending.
const MaxActionsPerActivity = 512

// Activity accumulates one source IP's interaction with one honeypot
// grouping.
type Activity struct {
	Sessions    int
	Logins      int64
	LoginOK     int64
	CommandsRun int64
	ActiveDays  uint64 // bitmask over experiment days (max MaxDays days)
	Actions     []Action

	hours hourMask // low tier only: the hours of the window it connected in
}

// hourMask is a bit per hour of the longest window, MaxDays days.
type hourMask [MaxDays * 24 / 64]uint64

// DayCount reports the number of distinct active days.
func (a *Activity) DayCount() int { return bits.OnesCount64(a.ActiveDays) }

// IPRecord is everything known about one source address.
type IPRecord struct {
	Addr          netip.Addr
	Country       string
	ASN           uint32
	ASName        string
	ASType        asdb.Type
	Institutional bool
	FirstSeen     time.Time
	LastSeen      time.Time
	Per           map[PerKey]*Activity

	gen uint64 // the shard generation this copy was made in; see storeShard.writable
}

// TotalLogins sums login attempts across honeypots.
func (r *IPRecord) TotalLogins() int64 {
	var n int64
	for _, a := range r.Per {
		n += a.Logins
	}
	return n
}

// ActiveDaysMask returns the union of active-day bitmasks over the
// activities matching q (DBMS and Tier; see Query.MatchKey). A non-zero
// q.Days additionally intersects the union with the selected day window.
func (r *IPRecord) ActiveDaysMask(q Query) uint64 {
	var m uint64
	for k, a := range r.Per {
		if q.MatchKey(k) {
			m |= a.ActiveDays
		}
	}
	if !q.Days.IsZero() {
		m &= q.Days.Mask(MaxDays)
	}
	return m
}

// clone copies the record for writing: the Per map and every Activity.
// Each Actions slice is capped at its length, so the clone's next append
// reallocates instead of writing into the array the original still reads.
func (r *IPRecord) clone() *IPRecord {
	c := *r
	c.Per = make(map[PerKey]*Activity, len(r.Per))
	for k, a := range r.Per {
		ac := *a
		ac.Actions = a.Actions[:len(a.Actions):len(a.Actions)]
		c.Per[k] = &ac
	}
	return &c
}

// Cred is an aggregated credential: one (dbms, user, pass) combination.
// The store tallies each one per tier, since the paper's credential
// tables (5, 6, 12) cover the low tier only while the PostgreSQL
// configuration comparison uses medium-tier logins.
type Cred struct {
	DBMS string
	User string
	Pass string
}

// credChunkRows is the number of credential rows in one chunk. Rows live
// in fixed-size chunks rather than in growing slices: a 100k-row column
// grown by append reallocates and copies itself on the ingest path, while
// a chunk is allocated once and never moves.
const credChunkRows = 1024

// credChunk holds credChunkRows credential rows: each row's key and its
// login tally on the low tier and on the medium/high tiers.
type credChunk struct {
	keys [credChunkRows]Cred
	low  [credChunkRows]int64
	mh   [credChunkRows]int64
}

// credRows is a shard's credential table. Rows are append-only and a
// row's key never changes once written, so a snapshot shares the chunks'
// keys and copies only their tallies.
//
// The index maps a seeded hash of each key to its row rather than the key
// itself: a pointer-free map the garbage collector does not scan, each
// key stored once (in its chunk), and growth that never rehashes strings.
// That keeps first-seen credentials, most of a collector's start-up
// preload, cheaper than a map keyed by Cred. A key whose hash an earlier
// key already holds is indexed in clash instead.
type credRows struct {
	seed   maphash.Seed
	row    map[uint64]int32
	clash  map[Cred]int32
	chunks []*credChunk
	n      int // rows in use
}

// add counts one login of c on the low tier or on the medium/high tiers.
func (t *credRows) add(c Cred, low bool) {
	h := maphash.Comparable(t.seed, c)
	r, hashed := t.row[h]
	found := hashed && t.chunks[r/credChunkRows].keys[r%credChunkRows] == c
	if hashed && !found {
		r, found = t.clash[c]
	}
	if !found {
		r = int32(t.n)
		t.n++
		if r%credChunkRows == 0 {
			t.chunks = append(t.chunks, new(credChunk))
		}
		t.chunks[r/credChunkRows].keys[r%credChunkRows] = c
		if hashed {
			t.clash[c] = r
		} else {
			t.row[h] = r
		}
	}
	ch := t.chunks[r/credChunkRows]
	if low {
		ch.low[r%credChunkRows]++
	} else {
		ch.mh[r%credChunkRows]++
	}
}

// storeShard is one independently locked partition of the store.
//
// gen counts the snapshots taken of the shard. A record made in an older
// generation may be shared with a snapshot, so the shard replaces it
// with a copy before its first write (writable).
type storeShard struct {
	mu     sync.Mutex
	gen    uint64
	index  map[netip.Addr]int // address -> position in recs
	recs   []*IPRecord        // in order of first sight
	creds  credRows
	events int64
}

func newShard() *storeShard {
	return &storeShard{
		index: make(map[netip.Addr]int),
		creds: credRows{seed: maphash.MakeSeed(), row: make(map[uint64]int32), clash: make(map[Cred]int32)},
	}
}

// writable returns record i ready for writing. A record from an older
// generation may be shared with a snapshot, so it is cloned first and
// the clone takes its place. Every write to a stored record goes through
// here. The caller holds sh.mu.
func (sh *storeShard) writable(i int) *IPRecord {
	rec := sh.recs[i]
	if rec.gen != sh.gen {
		rec = rec.clone()
		rec.gen = sh.gen
		sh.recs[i] = rec
	}
	return rec
}

// Store accumulates events, partitioned by source IP into independently
// locked shards. It implements core.Sink and core.BatchSink and is safe
// for concurrent use.
type Store struct {
	start  time.Time
	days   int
	geo    *geoip.DB
	shards []*storeShard
	wal    *wal.Log // optional journal; see wal.go

	snapMu  sync.Mutex // serialises Snapshot; guards the fields below
	ids     credIDs
	tallies [2][]int64 // reused copy of one shard's tallies (low, mh)
	stats   SnapshotStats
}

// MaxDays is the longest supported experiment window: the per-activity
// day bitmask is 64 bits wide. The paper's deployments ran 20 days; the
// extended-deployment future work fits well inside 64.
const MaxDays = 64

// New creates a store for an experiment window starting at start and
// lasting days days (max MaxDays), enriching sources against geo. The
// shard count defaults to GOMAXPROCS — the same default the event bus
// uses — so a bus and a store built with defaults have matching
// partitions and batch commits never cross shards.
func New(start time.Time, days int, geo *geoip.DB) *Store {
	return NewSharded(start, days, geo, runtime.GOMAXPROCS(0))
}

// NewSharded is New with an explicit shard count. Pass the bus's shard
// count to keep delivery batches shard-affine; shards < 1 means 1.
// Windows longer than MaxDays are rejected here, at construction, so a
// long capture can never silently truncate its day bitmasks.
func NewSharded(start time.Time, days int, geo *geoip.DB, shards int) *Store {
	if days > MaxDays {
		panic(fmt.Sprintf("evstore: %d-day window exceeds the %d-day bitmask limit", days, MaxDays))
	}
	if shards < 1 {
		shards = 1
	}
	s := &Store{start: start, days: days, geo: geo, shards: make([]*storeShard, shards)}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	s.ids = credIDs{id: make(map[Cred]int32), rows: make([][]int32, shards)}
	return s
}

// Start returns the experiment start time.
func (s *Store) Start() time.Time { return s.start }

// Days returns the experiment length in days.
func (s *Store) Days() int { return s.days }

// Shards returns the shard count, for matching against bus.Options.Shards.
func (s *Store) Shards() int { return len(s.shards) }

// Events returns the number of events ingested.
func (s *Store) Events() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.events
		sh.mu.Unlock()
	}
	return n
}

func (s *Store) shardFor(addr netip.Addr) *storeShard {
	return s.shards[core.ShardOf(addr, len(s.shards))]
}

// Record implements core.Sink: a batch of one.
func (s *Store) Record(e core.Event) { _ = s.RecordBatch([]core.Event{e}) }

// RecordBatch implements core.BatchSink: RecordBatchTagged with no tag.
func (s *Store) RecordBatch(events []core.Event) error { return s.RecordBatchTagged(events, nil) }

// RecordBatchTagged implements core.TaggedBatchSink. It is the store's
// one write path: Record, RecordBatch and WAL replay all end here. With
// a WAL attached the batch is journaled first, together with an opaque
// provenance tag that AttachWAL's onReplay surfaces again after a
// restart; a batch the journal did not accept is not applied, and the
// error surfaces to the deliverer. Without a WAL the tag has nowhere to
// live and the batch is simply applied.
func (s *Store) RecordBatchTagged(events []core.Event, tag []byte) error {
	if s.wal != nil {
		if _, err := s.wal.Append(events, tag); err != nil {
			return err
		}
	}
	s.applyBatch(events)
	return nil
}

// applyBatch commits events to the shards in shard-aligned runs:
// consecutive events hashing to the same shard share one lock
// acquisition. When the batch comes from an event bus with a matching
// shard count, the whole batch is a single run — one lock per batch, and
// different bus workers never touch the same shard.
func (s *Store) applyBatch(events []core.Event) {
	n := len(s.shards)
	for i := 0; i < len(events); {
		si := core.ShardOf(events[i].Src.Addr(), n)
		j := i + 1
		for j < len(events) && core.ShardOf(events[j].Src.Addr(), n) == si {
			j++
		}
		sh := s.shards[si]
		sh.mu.Lock()
		var c cursor
		for k := i; k < j; k++ {
			s.record(sh, &events[k], &c)
		}
		sh.mu.Unlock()
		i = j
	}
}

// cursor is the record and activity the previous event of a shard run
// wrote. The record was made writable under the same hold of the shard
// lock, so no snapshot can have taken it since, and the next event from
// the same source to the same grouping writes it again without a lookup.
type cursor struct {
	addr netip.Addr
	key  PerKey
	rec  *IPRecord
	act  *Activity
}

// record applies one event to its shard. The caller holds sh.mu and
// passes the same cursor for every event of one lock hold.
func (s *Store) record(sh *storeShard, e *core.Event, c *cursor) {
	sh.events++

	addr := e.Src.Addr()
	key := PerKey{DBMS: e.Honeypot.DBMS, Level: e.Honeypot.Level, Config: e.Honeypot.Config, Group: e.Honeypot.Group}
	if c.rec == nil || c.addr != addr {
		i, ok := sh.index[addr]
		if !ok {
			i = len(sh.recs)
			sh.index[addr] = i
			sh.recs = append(sh.recs, s.newRecord(addr, e.Time, sh.gen))
		}
		*c = cursor{addr: addr, rec: sh.writable(i)}
	}
	rec := c.rec
	if c.act == nil || c.key != key {
		c.act = rec.Per[key]
		if c.act == nil {
			c.act = &Activity{}
			rec.Per[key] = c.act
		}
		c.key = key
	}
	act := c.act
	if e.Time.Before(rec.FirstSeen) {
		rec.FirstSeen = e.Time
	}
	if e.Time.After(rec.LastSeen) {
		rec.LastSeen = e.Time
	}

	// Events before the window start mark no day or hour.
	off := e.Time.Sub(s.start)
	if day := int(off / (24 * time.Hour)); off >= 0 && day < s.days {
		act.ActiveDays |= 1 << uint(day)
	}

	switch e.Kind {
	case core.EventConnect:
		act.Sessions++
		if hour := int(off / time.Hour); key.Level == core.Low && off >= 0 && hour < s.days*24 {
			act.hours[hour/64] |= 1 << uint(hour%64)
		}
	case core.EventLogin:
		act.Logins++
		if e.OK {
			act.LoginOK++
		}
		sh.creds.add(Cred{DBMS: e.Honeypot.DBMS, User: e.User, Pass: e.Pass}, e.Honeypot.Level == core.Low)
	case core.EventCommand:
		act.CommandsRun++
		if len(act.Actions) < MaxActionsPerActivity {
			act.Actions = append(act.Actions, Action{Name: e.Command, Raw: e.Raw})
		}
	case core.EventClose:
		// Close carries no aggregate beyond day activity.
	}
}

// newRecord makes the record of a source seen for the first time,
// enriched from the geo database when the store has one.
func (s *Store) newRecord(addr netip.Addr, t time.Time, gen uint64) *IPRecord {
	rec := &IPRecord{Addr: addr, FirstSeen: t, LastSeen: t, Per: make(map[PerKey]*Activity), ASType: asdb.Unknown, gen: gen}
	if s.geo != nil {
		if g, ok := s.geo.Lookup(addr); ok {
			rec.Country = g.Country
			rec.ASN = g.ASN
			rec.ASName = g.ASName
			rec.ASType = g.ASType
			rec.Institutional = asdb.Institutional(g.ASN)
		}
	}
	return rec
}

// MarkInstitutional overrides the institutional flag for the given
// addresses and reports how many of them were actually present in the
// capture. The paper identifies institutional scanners from an IP list
// (Griffioen et al.), not from AS ownership; callers holding such a list
// apply it here after ingestion. A return value of zero for a non-empty
// list means the list does not overlap the capture at all — worth a
// warning in report tooling.
func (s *Store) MarkInstitutional(addrs []netip.Addr) int {
	applied := 0
	for _, a := range addrs {
		sh := s.shardFor(a)
		sh.mu.Lock()
		if i, ok := sh.index[a]; ok {
			sh.writable(i).Institutional = true
			applied++
		}
		sh.mu.Unlock()
	}
	return applied
}

// IPs returns all IP records sorted by address, as a fresh Snapshot
// holds them: later writes do not change them.
func (s *Store) IPs() []*IPRecord { return s.Snapshot().Recs() }

// Sources returns the number of distinct source addresses recorded. It
// counts each shard's records under its lock and copies nothing, so a
// metrics scrape costs O(shards).
func (s *Store) Sources() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.recs)
		sh.mu.Unlock()
	}
	return n
}

// sortByAddr sorts records by address.
func sortByAddr(recs []*IPRecord) {
	slices.SortFunc(recs, func(a, b *IPRecord) int { return a.Addr.Compare(b.Addr) })
}
