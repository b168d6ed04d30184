package evstore

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"decoydb/internal/core"
)

// seedStore builds a store with a deterministic mixed workload: logins on
// two DBMSes across both tiers, connects spread over days, and enough
// distinct sources to populate every shard of a multi-shard store.
func seedStore(t *testing.T, shards int) *Store {
	t.Helper()
	s := NewSharded(start, 20, nil, shards)
	med := core.Info{DBMS: core.Postgres, Level: core.Medium, Config: core.ConfigNoLogin, Group: core.GroupMedium}
	for i := 0; i < 64; i++ {
		addr := fmt.Sprintf("198.51.%d.%d", i/200, 1+i%200)
		day := i % 20
		s.Record(ev(addr, lowInfo(core.MSSQL), core.EventConnect, day*24))
		if i%2 == 0 {
			e := ev(addr, lowInfo(core.MSSQL), core.EventLogin, day*24)
			e.User, e.Pass = "sa", fmt.Sprintf("pw%d", i%5)
			s.Record(e)
		}
		if i%3 == 0 {
			e := ev(addr, med, core.EventLogin, day*24+1)
			e.User, e.Pass = "postgres", "pw0"
			s.Record(e)
		}
		if i%4 == 0 {
			s.Record(ev(addr, lowInfo(core.MySQL), core.EventConnect, day*24+2))
		}
	}
	return s
}

// TestQueryEquivalence pins the Query API to the semantics of the old
// per-dimension method family: Creds(Query{DBMS}) ≡ Creds(dbms),
// Creds(Query{DBMS, Tier}) ≡ CredsTier(dbms, low), Logins(Query{DBMS})
// ≡ TotalLogins(dbms), and so on — computed here against a brute-force
// reference over the same events.
func TestQueryEquivalence(t *testing.T) {
	s := seedStore(t, 4)

	cases := []struct {
		name string
		q    Query
	}{
		{"all", Query{}},
		{"dbms", Query{DBMS: core.MSSQL}},                    // old Creds/TotalLogins(dbms)
		{"low-tier", Query{Tier: LowTier}},                   // old CredsTier("", true)
		{"mh-tier", Query{Tier: MediumHighTier}},             // old CredsTier("", false)
		{"dbms+low", Query{DBMS: core.MSSQL, Tier: LowTier}}, // old CredsTier(dbms, true)
		{"dbms+mh", Query{DBMS: core.Postgres, Tier: MediumHighTier}},
		{"absent-dbms", Query{DBMS: core.Redis}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Reference: recompute from the raw per-shard credential maps.
			var wantLogins int64
			wantCreds := map[Cred]int64{}
			for _, sh := range s.shards {
				for cr, n := range sh.creds {
					if c.q.DBMS != "" && cr.DBMS != c.q.DBMS {
						continue
					}
					if !c.q.Tier.matchLow(cr.Low) {
						continue
					}
					wantLogins += n
					wantCreds[Cred{DBMS: cr.DBMS, User: cr.User, Pass: cr.Pass}] += n
				}
			}
			if got := s.Logins(c.q); got != wantLogins {
				t.Fatalf("Logins = %d, want %d", got, wantLogins)
			}
			got := s.Creds(c.q)
			if len(got) != len(wantCreds) {
				t.Fatalf("Creds len = %d, want %d", len(got), len(wantCreds))
			}
			var prev int64 = 1<<63 - 1
			for _, cc := range got {
				if wantCreds[cc.Cred] != cc.Count {
					t.Fatalf("cred %+v count = %d, want %d", cc.Cred, cc.Count, wantCreds[cc.Cred])
				}
				if cc.Count > prev {
					t.Fatal("creds not sorted by descending count")
				}
				prev = cc.Count
			}
		})
	}
}

// TestQueryShardInvariance: every query result must be independent of the
// shard count — 1 shard (the old single-mutex layout) and N shards must
// agree exactly.
func TestQueryShardInvariance(t *testing.T) {
	one := seedStore(t, 1)
	for _, shards := range []int{2, 4, 8, 13} {
		many := seedStore(t, shards)
		queries := []Query{
			{},
			{DBMS: core.MSSQL},
			{Tier: LowTier},
			{DBMS: core.MSSQL, Tier: LowTier},
			{Days: DayRange{From: 3, To: 9}},
			{DBMS: core.MySQL, Days: DayRange{From: 0, To: 5}},
		}
		for _, q := range queries {
			if a, b := one.Logins(q), many.Logins(q); a != b {
				t.Fatalf("shards=%d %+v: Logins %d != %d", shards, q, b, a)
			}
			if a, b := one.UniqueIPs(q), many.UniqueIPs(q); a != b {
				t.Fatalf("shards=%d %+v: UniqueIPs %d != %d", shards, q, b, a)
			}
			ha, hb := one.HourlyUnique(q), many.HourlyUnique(q)
			ca, cb := one.CumulativeNew(q), many.CumulativeNew(q)
			for h := range ha {
				if ha[h] != hb[h] || ca[h] != cb[h] {
					t.Fatalf("shards=%d %+v: hourly series diverge at hour %d", shards, q, h)
				}
			}
			la, lb := one.Creds(q), many.Creds(q)
			if len(la) != len(lb) {
				t.Fatalf("shards=%d %+v: creds len %d != %d", shards, q, len(lb), len(la))
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("shards=%d %+v: cred %d: %+v != %+v", shards, q, i, lb[i], la[i])
				}
			}
		}
		if a, b := one.Events(), many.Events(); a != b {
			t.Fatalf("shards=%d: events %d != %d", shards, b, a)
		}
	}
}

// TestQueryDayRange pins day-range semantics: UniqueIPs restricts to
// records active inside the range, and the hourly series cover exactly
// the selected hours.
func TestQueryDayRange(t *testing.T) {
	s := New(start, 20, nil)
	s.Record(ev("192.0.2.1", lowInfo(core.MSSQL), core.EventConnect, 0))     // day 0
	s.Record(ev("192.0.2.2", lowInfo(core.MSSQL), core.EventConnect, 5*24))  // day 5
	s.Record(ev("192.0.2.3", lowInfo(core.MSSQL), core.EventConnect, 19*24)) // day 19

	if got := s.UniqueIPs(Query{Days: DayRange{From: 0, To: 1}}); got != 1 {
		t.Fatalf("day 0 IPs = %d", got)
	}
	if got := s.UniqueIPs(Query{Days: DayRange{From: 5, To: 20}}); got != 2 {
		t.Fatalf("day 5+ IPs = %d", got)
	}
	if got := s.UniqueIPs(Query{}); got != 3 {
		t.Fatalf("all IPs = %d", got)
	}

	h := s.HourlyUnique(Query{Days: DayRange{From: 5, To: 6}})
	if len(h) != 24 {
		t.Fatalf("ranged hourly len = %d", len(h))
	}
	if h[0] != 1 {
		t.Fatalf("hour 5*24 count = %d", h[0])
	}
	c := s.CumulativeNew(Query{Days: DayRange{From: 5, To: 6}})
	if c[0] != 1 || c[23] != 1 {
		t.Fatalf("ranged cumulative = %v", c)
	}

	// Out-of-range To clamps to the window end.
	if got := len(s.HourlyUnique(Query{Days: DayRange{From: 0, To: 99}})); got != 20*24 {
		t.Fatalf("clamped hourly len = %d", got)
	}
}

// TestSnapshotMatchesStore: a quiesced store and its snapshot must agree
// on every query, and the snapshot must be immune to later ingest.
func TestSnapshotMatchesStore(t *testing.T) {
	s := seedStore(t, 4)
	snap := s.Snapshot()

	queries := []Query{
		{},
		{DBMS: core.MSSQL, Tier: LowTier},
		{Tier: MediumHighTier},
		{Days: DayRange{From: 2, To: 10}},
	}
	for _, q := range queries {
		if a, b := s.Logins(q), snap.Logins(q); a != b {
			t.Fatalf("%+v: Logins store=%d snap=%d", q, a, b)
		}
		if a, b := s.UniqueIPs(q), snap.UniqueIPs(q); a != b {
			t.Fatalf("%+v: UniqueIPs store=%d snap=%d", q, a, b)
		}
		ha, hb := s.HourlyUnique(q), snap.HourlyUnique(q)
		ca, cb := s.CumulativeNew(q), snap.CumulativeNew(q)
		for h := range ha {
			if ha[h] != hb[h] || ca[h] != cb[h] {
				t.Fatalf("%+v: hourly series diverge at %d", q, h)
			}
		}
	}
	if a, b := s.Events(), snap.Events(); a != b {
		t.Fatalf("events store=%d snap=%d", a, b)
	}
	recs, live := snap.Recs(), s.IPs()
	if len(recs) != len(live) {
		t.Fatalf("recs %d != %d", len(recs), len(live))
	}
	for i := range recs {
		if recs[i].Addr != live[i].Addr || recs[i].TotalLogins() != live[i].TotalLogins() {
			t.Fatalf("rec %d differs", i)
		}
	}

	// Later ingest must not leak into the snapshot (deep copy).
	addr := recs[0].Addr
	before := snap.IP(addr).TotalLogins()
	e := core.Event{
		Time: start, Src: netip.AddrPortFrom(addr, 999),
		Honeypot: lowInfo(core.MSSQL), Kind: core.EventLogin, User: "sa", Pass: "x",
	}
	for i := 0; i < 10; i++ {
		s.Record(e)
	}
	if got := snap.IP(addr).TotalLogins(); got != before {
		t.Fatalf("snapshot mutated by later ingest: %d -> %d", before, got)
	}
}

// TestConcurrentRecordBatchSnapshot exercises the shard locking under
// race detection: one producer per shard committing shard-affine batches
// (the bus delivery pattern) while a reader repeatedly snapshots and
// queries. Run with -race in CI.
func TestConcurrentRecordBatchSnapshot(t *testing.T) {
	const shards = 4
	s := NewSharded(start, 20, nil, shards)

	// Pre-partition source addresses by shard, as the bus does.
	perShard := make([][]netip.Addr, shards)
	for i := 0; i < 1024; i++ {
		addr := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		si := core.ShardOf(addr, shards)
		perShard[si] = append(perShard[si], addr)
	}

	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(addrs []netip.Addr) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				batch := make([]core.Event, 0, len(addrs))
				for _, a := range addrs {
					e := core.Event{
						Time:     start.Add(time.Duration(round) * time.Hour),
						Src:      netip.AddrPortFrom(a, 1000),
						Honeypot: lowInfo(core.MSSQL),
						Kind:     core.EventLogin,
					}
					e.User, e.Pass = "sa", "123"
					batch = append(batch, e)
				}
				if err := s.RecordBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(perShard[si])
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := s.Snapshot()
			// Every observed state must be internally consistent.
			if got := snap.Logins(Query{}); got != snap.Logins(Query{DBMS: core.MSSQL}) {
				t.Errorf("snapshot logins inconsistent: %d", got)
				return
			}
			_ = snap.UniqueIPs(Query{Tier: LowTier})
			_ = s.Logins(Query{})
			_ = s.IPs()
		}
	}()

	wg.Wait()
	<-done

	want := int64(1024 * 20)
	if got := s.Logins(Query{}); got != want {
		t.Fatalf("final logins = %d, want %d", got, want)
	}
	if got := s.Events(); got != want {
		t.Fatalf("final events = %d, want %d", got, want)
	}
}

// TestShardAffinity pins the bus/store affinity contract: a batch of
// events whose sources all hash to one core.ShardOf shard must be
// committed under exactly one shard of a store with the same shard count.
func TestShardAffinity(t *testing.T) {
	const n = 8
	s := NewSharded(start, 20, nil, n)
	if s.Shards() != n {
		t.Fatalf("Shards = %d", s.Shards())
	}
	for i := 0; i < 256; i++ {
		addr := netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)})
		si := core.ShardOf(addr, n)
		s.Record(core.Event{Time: start, Src: netip.AddrPortFrom(addr, 1), Honeypot: lowInfo(core.MSSQL), Kind: core.EventConnect})
		sh := s.shards[si]
		sh.mu.Lock()
		_, ok := sh.ips[addr]
		sh.mu.Unlock()
		if !ok {
			t.Fatalf("addr %v not in shard %d", addr, si)
		}
	}
}
