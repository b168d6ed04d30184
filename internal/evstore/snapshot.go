package evstore

import (
	"iter"
	"math/bits"
	"net/netip"
	"slices"
	"time"

	"decoydb/internal/core"
)

// Snapshot is an immutable point-in-time view of the whole store, and
// the only way to query it: one pass over the shards at construction,
// then every Table 1–12 experiment reads lock-free from the same
// dataset. A Snapshot stays valid and race-free while ingest continues:
// it shares records, and with them their activities' day and hour
// bitmaps, with the store, which copies a record before writing it
// again. The hourly series are folded from those bitmaps when read.
type Snapshot struct {
	start  time.Time
	days   int
	events int64
	recs   []*IPRecord // sorted by address
	creds  []Cred      // store-wide credential id -> credential
	low    []int64     // low-tier logins per credential id
	mh     []int64     // medium/high-tier logins per credential id
}

// SnapshotStats reports what building snapshots has cost. Build is the
// duration of each Snapshot call; Lock is the part of it spent holding
// shard locks, summed over the shards, which bounds how long the
// snapshot held up ingest.
type SnapshotStats struct {
	Build core.DurationHist `json:"build"`
	Lock  core.DurationHist `json:"lock"`
}

// credIDs numbers credentials store-wide, so Snapshot can merge the
// shards' credential rows by id. rows[i] maps shard i's rows to ids; it
// grows by the rows added since the previous snapshot, so only the first
// snapshot hashes every row.
type credIDs struct {
	id    map[Cred]int32
	creds []Cred // id -> credential, append-only; snapshots share its prefix
	rows  [][]int32
}

// extend assigns ids to shard i's rows from the last one it numbered up
// to n, reading their keys from chunks, and returns the shard's row -> id
// map. Keys below n never change, so this runs without the shard lock.
func (c *credIDs) extend(i int, chunks []*credChunk, n int) []int32 {
	rows := c.rows[i]
	for r := len(rows); r < n; r++ {
		key := chunks[r/credChunkRows].keys[r%credChunkRows]
		id, ok := c.id[key]
		if !ok {
			id = int32(len(c.creds))
			c.id[key] = id
			c.creds = append(c.creds, key)
		}
		rows = append(rows, id)
	}
	c.rows[i] = rows
	return rows
}

// Snapshot builds an immutable view of the store. Each shard is captured
// under its own lock, one shard at a time, so the view is consistent
// within every shard while the others keep ingesting. Under the lock the
// shard bumps its generation and hands over its record pointers and a
// copy of its credential tallies; after the first write to a record the
// shard works on a clone. Credentials are then merged across shards by
// id and the records sorted, outside every shard lock.
func (s *Store) Snapshot() *Snapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	began := time.Now()
	var held time.Duration
	v := &Snapshot{start: s.start, days: s.days}
	for i, sh := range s.shards {
		sh.mu.Lock()
		locked := time.Now()
		sh.gen++
		v.events += sh.events
		v.recs = append(v.recs, sh.recs...)
		chunks, n := sh.creds.chunks, sh.creds.n
		low, mh := s.tallyBuf(n)
		for c := 0; c*credChunkRows < n; c++ {
			copy(low[c*credChunkRows:], chunks[c].low[:])
			copy(mh[c*credChunkRows:], chunks[c].mh[:])
		}
		sh.mu.Unlock()
		held += time.Since(locked)

		ids := s.ids.extend(i, chunks, n)
		if k := len(s.ids.creds); k > len(v.low) {
			v.low = append(v.low, make([]int64, k-len(v.low))...)
			v.mh = append(v.mh, make([]int64, k-len(v.mh))...)
		}
		for r, id := range ids {
			v.low[id] += low[r]
			v.mh[id] += mh[r]
		}
	}
	v.creds = s.ids.creds[:len(v.low):len(v.low)]
	sortByAddr(v.recs)
	s.stats.Lock.Observe(held)
	s.stats.Build.Observe(time.Since(began))
	return v
}

// tallyBuf returns the reused buffers a shard's n credential tallies are
// copied into, each rounded up to whole chunks. The caller holds snapMu.
func (s *Store) tallyBuf(n int) (low, mh []int64) {
	n = (n + credChunkRows - 1) / credChunkRows * credChunkRows
	for i := range s.tallies {
		if cap(s.tallies[i]) < n {
			s.tallies[i] = make([]int64, n)
		}
	}
	return s.tallies[0][:n], s.tallies[1][:n]
}

// SnapshotStats returns the snapshot build and lock-hold histograms.
func (s *Store) SnapshotStats() SnapshotStats {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.stats
}

// Start returns the experiment start time.
func (v *Snapshot) Start() time.Time { return v.start }

// Days returns the experiment length in days.
func (v *Snapshot) Days() int { return v.days }

// Events returns the number of events ingested at snapshot time.
func (v *Snapshot) Events() int64 { return v.events }

// Recs returns all IP records sorted by address. The slice and records
// are owned by the snapshot; callers must treat them as read-only.
func (v *Snapshot) Recs() []*IPRecord { return v.recs }

// IP returns the record for addr, or nil.
func (v *Snapshot) IP(addr netip.Addr) *IPRecord {
	i, ok := slices.BinarySearchFunc(v.recs, addr, func(r *IPRecord, a netip.Addr) int { return r.Addr.Compare(a) })
	if !ok {
		return nil
	}
	return v.recs[i]
}

// Creds returns the first n credentials matching q (DBMS, Tier) in
// CompareCreds order: by descending count, then dbms, user and pass.
// n <= 0 returns them all.
func (v *Snapshot) Creds(q Query, n int) []CredCount {
	var top []CredCount
	for id, c := range v.creds {
		count := q.Tier.tally(v.low[id], v.mh[id])
		if count == 0 || (q.DBMS != "" && c.DBMS != q.DBMS) {
			continue
		}
		cc := CredCount{Cred: c, Count: count}
		if n <= 0 {
			top = append(top, cc)
			continue
		}
		// Bounded insertion: most rows lose to the current n-th at once.
		if len(top) == n && CompareCreds(cc, top[n-1]) >= 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(top, cc, CompareCreds)
		if len(top) < n {
			top = append(top, CredCount{})
		}
		copy(top[at+1:], top[at:])
		top[at] = cc
	}
	if n <= 0 {
		slices.SortFunc(top, CompareCreds)
	}
	return top
}

// Logins sums the login attempts matching q (DBMS, Tier).
func (v *Snapshot) Logins(q Query) int64 {
	var n int64
	for id, c := range v.creds {
		if q.DBMS == "" || c.DBMS == q.DBMS {
			n += q.Tier.tally(v.low[id], v.mh[id])
		}
	}
	return n
}

// Select returns the records matching q, in address order. The records
// are owned by the snapshot; callers must treat them as read-only.
func (v *Snapshot) Select(q Query) []*IPRecord {
	var out []*IPRecord
	for _, r := range v.recs {
		if q.matchRecord(r, v.days) {
			out = append(out, r)
		}
	}
	return out
}

// UniqueIPs reports the number of sources matching q. The zero Query
// counts every source seen.
func (v *Snapshot) UniqueIPs(q Query) int {
	n := 0
	for _, r := range v.recs {
		if q.matchRecord(r, v.days) {
			n++
		}
	}
	return n
}

// HourlyUnique returns the per-hour unique-client counts on the low tier
// for q.DBMS ("" = all), over q.Days (zero = whole window). It folds every
// record's low-tier connect hours: O(records) per call.
func (v *Snapshot) HourlyUnique(q Query) []int {
	lo, hi := hourSpan(q, v.days)
	out := make([]int, hi-lo)
	for _, r := range v.recs {
		m := r.lowHours(q.DBMS)
		for h := range m.within(lo, hi) {
			out[h-lo]++
		}
	}
	return out
}

// CumulativeNew returns, per hour over q.Days, the cumulative number of
// distinct clients first seen up to that hour on the low tier for q.DBMS
// ("" = all): each record counts from the first hour of the span it
// connected in. O(records) per call, like HourlyUnique.
func (v *Snapshot) CumulativeNew(q Query) []int {
	lo, hi := hourSpan(q, v.days)
	out := make([]int, hi-lo)
	for _, r := range v.recs {
		m := r.lowHours(q.DBMS)
		for h := range m.within(lo, hi) {
			out[h-lo]++
			break
		}
	}
	for h := 1; h < len(out); h++ {
		out[h] += out[h-1]
	}
	return out
}

// lowHours returns the hours the record connected to the low tier in, on
// dbms ("" = all).
func (r *IPRecord) lowHours(dbms string) hourMask {
	var m hourMask
	for k, a := range r.Per {
		if k.Level == core.Low && (dbms == "" || k.DBMS == dbms) {
			for w := range m {
				m[w] |= a.hours[w]
			}
		}
	}
	return m
}

// within yields the hours in [lo, hi) whose bit is set, in order.
func (m *hourMask) within(lo, hi int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for w := lo / 64; w*64 < hi; w++ {
			for word := m[w]; word != 0; word &= word - 1 {
				h := w*64 + bits.TrailingZeros64(word)
				if h >= hi {
					return
				}
				if h >= lo && !yield(h) {
					return
				}
			}
		}
	}
}
