package evstore

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"decoydb/internal/core"
)

// seedEvents is a deterministic mixed workload: logins on two DBMSes
// across both tiers, commands on a medium-tier honeypot, connects spread
// over days, and enough distinct sources to populate every shard of a
// multi-shard store.
func seedEvents() []core.Event {
	var out []core.Event
	med := core.Info{DBMS: core.Postgres, Level: core.Medium, Config: core.ConfigNoLogin, Group: core.GroupMedium}
	redis := core.Info{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}
	for i := 0; i < 64; i++ {
		addr := fmt.Sprintf("198.51.%d.%d", i/200, 1+i%200)
		day := i % 20
		out = append(out, ev(addr, lowInfo(core.MSSQL), core.EventConnect, day*24))
		if i%2 == 0 {
			e := ev(addr, lowInfo(core.MSSQL), core.EventLogin, day*24)
			e.User, e.Pass = "sa", fmt.Sprintf("pw%d", i%5)
			out = append(out, e)
		}
		if i%3 == 0 {
			e := ev(addr, med, core.EventLogin, day*24+1)
			e.User, e.Pass = "postgres", "pw0"
			out = append(out, e)
		}
		if i%4 == 0 {
			out = append(out, ev(addr, lowInfo(core.MySQL), core.EventConnect, day*24+2))
		}
		if i%5 == 0 {
			for _, cmd := range []string{"INFO", "CONFIG", "SET"} {
				e := ev(addr, redis, core.EventCommand, day*24+3)
				e.Command, e.Raw = cmd, cmd+" x"
				out = append(out, e)
			}
		}
	}
	return out
}

// seedStore records seedEvents into a store with the given shard count.
func seedStore(t *testing.T, shards int) *Store {
	t.Helper()
	s := NewSharded(start, 20, nil, shards)
	for _, e := range seedEvents() {
		s.Record(e)
	}
	return s
}

// TestQueryEquivalence pins the Query API to the semantics of the old
// per-dimension method family: Creds(Query{DBMS}) ≡ Creds(dbms),
// Creds(Query{DBMS, Tier}) ≡ CredsTier(dbms, low), Logins(Query{DBMS})
// ≡ TotalLogins(dbms), and so on — computed here against a brute-force
// reference over the events seedStore records.
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
			// Reference: recount the login events the store was fed.
			var wantLogins int64
			wantCreds := map[Cred]int64{}
			for _, e := range seedEvents() {
				if e.Kind != core.EventLogin || !c.q.MatchKey(PerKey{DBMS: e.Honeypot.DBMS, Level: e.Honeypot.Level}) {
					continue
				}
				wantLogins++
				wantCreds[Cred{DBMS: e.Honeypot.DBMS, User: e.User, Pass: e.Pass}]++
			}
			if got := s.Snapshot().Logins(c.q); got != wantLogins {
				t.Fatalf("Logins = %d, want %d", got, wantLogins)
			}
			got := s.Snapshot().Creds(c.q, 0)
			if len(got) != len(wantCreds) {
				t.Fatalf("Creds len = %d, want %d", len(got), len(wantCreds))
			}
			for i, cc := range got {
				if wantCreds[cc.Cred] != cc.Count {
					t.Fatalf("cred %+v count = %d, want %d", cc.Cred, cc.Count, wantCreds[cc.Cred])
				}
				if i > 0 && CompareCreds(got[i-1], cc) >= 0 {
					t.Fatalf("creds %d and %d out of order: %+v, %+v", i-1, i, got[i-1], cc)
				}
			}
		})
	}
}

// TestCredOrderIsTotal: equal counts for the same user and pass on two
// DBMSes come back in one order, dbms ascending, on every call. Ranking
// by count, user and pass alone left such ties to map iteration order.
func TestCredOrderIsTotal(t *testing.T) {
	s := New(start, 20, nil)
	for _, dbms := range []string{core.MySQL, core.MSSQL} {
		e := ev("192.0.2.7", lowInfo(dbms), core.EventLogin, 0)
		e.User, e.Pass = "sa", "x"
		s.Record(e)
	}
	for i := 0; i < 200; i++ {
		got := s.Snapshot().Creds(Query{}, 0)
		if len(got) != 2 || got[0].DBMS != core.MSSQL || got[1].DBMS != core.MySQL {
			t.Fatalf("call %d: creds = %+v, want mssql before mysql", i, got)
		}
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
			if a, b := one.Snapshot().Logins(q), many.Snapshot().Logins(q); a != b {
				t.Fatalf("shards=%d %+v: Logins %d != %d", shards, q, b, a)
			}
			if a, b := one.Snapshot().UniqueIPs(q), many.Snapshot().UniqueIPs(q); a != b {
				t.Fatalf("shards=%d %+v: UniqueIPs %d != %d", shards, q, b, a)
			}
			ha, hb := one.Snapshot().HourlyUnique(q), many.Snapshot().HourlyUnique(q)
			ca, cb := one.Snapshot().CumulativeNew(q), many.Snapshot().CumulativeNew(q)
			for h := range ha {
				if ha[h] != hb[h] || ca[h] != cb[h] {
					t.Fatalf("shards=%d %+v: hourly series diverge at hour %d", shards, q, h)
				}
			}
			all := one.Snapshot().Creds(q, 0)
			if !slices.Equal(many.Snapshot().Creds(q, 0), all) {
				t.Fatalf("shards=%d %+v: creds %+v != %+v", shards, q, many.Snapshot().Creds(q, 0), all)
			}
			// Creds(q, n) is exactly the first n of Creds(q, 0).
			for _, n := range []int{1, 3, 10, len(all) + 1} {
				want := all[:min(n, len(all))]
				for _, s := range []*Store{one, many} {
					if got := s.Snapshot().Creds(q, n); !slices.Equal(got, want) {
						t.Fatalf("shards=%d %+v n=%d: creds %+v, want %+v", s.Shards(), q, n, got, want)
					}
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

	if got := s.Snapshot().UniqueIPs(Query{Days: DayRange{From: 0, To: 1}}); got != 1 {
		t.Fatalf("day 0 IPs = %d", got)
	}
	if got := s.Snapshot().UniqueIPs(Query{Days: DayRange{From: 5, To: 20}}); got != 2 {
		t.Fatalf("day 5+ IPs = %d", got)
	}
	if got := s.Snapshot().UniqueIPs(Query{}); got != 3 {
		t.Fatalf("all IPs = %d", got)
	}

	h := s.Snapshot().HourlyUnique(Query{Days: DayRange{From: 5, To: 6}})
	if len(h) != 24 {
		t.Fatalf("ranged hourly len = %d", len(h))
	}
	if h[0] != 1 {
		t.Fatalf("hour 5*24 count = %d", h[0])
	}
	c := s.Snapshot().CumulativeNew(Query{Days: DayRange{From: 5, To: 6}})
	if c[0] != 1 || c[23] != 1 {
		t.Fatalf("ranged cumulative = %v", c)
	}

	// Out-of-range To clamps to the window end.
	if got := len(s.Snapshot().HourlyUnique(Query{Days: DayRange{From: 0, To: 99}})); got != 20*24 {
		t.Fatalf("clamped hourly len = %d", got)
	}
}

// snapQueries are the selections the snapshot tests compare on.
var snapQueries = []Query{
	{},
	{DBMS: core.MSSQL, Tier: LowTier},
	{DBMS: core.MSSQL},
	{Tier: MediumHighTier},
	{Days: DayRange{From: 2, To: 10}},
}

// snapAnswers renders every query answer a reader can get from v, for
// comparing two points in time.
func snapAnswers(v *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d\n", v.Events())
	for _, q := range snapQueries {
		fmt.Fprintf(&b, "%+v: logins=%d ips=%d creds=%v\nhourly=%v\ncumulative=%v\n",
			q, v.Logins(q), v.UniqueIPs(q), v.Creds(q, 0), v.HourlyUnique(q), v.CumulativeNew(q))
	}
	return b.String()
}

// deepCopy copies records down to their Actions, sharing nothing with
// the store.
func deepCopy(recs []*IPRecord) []IPRecord {
	out := make([]IPRecord, len(recs))
	for i, r := range recs {
		c := *r
		c.Per = make(map[PerKey]*Activity, len(r.Per))
		for k, a := range r.Per {
			ac := *a
			ac.Actions = slices.Clone(a.Actions)
			c.Per[k] = &ac
		}
		out[i] = c
	}
	return out
}

// TestSnapshotMatchesStore: two snapshots of a quiesced store must agree
// on every query, and a snapshot must be immune to every kind of later
// write — its answers and its records stay what they were when it was
// taken, although it shares records, hour bitmaps included, with the
// store.
func TestSnapshotMatchesStore(t *testing.T) {
	s := seedStore(t, 4)
	snap := s.Snapshot()

	if a, b := snapAnswers(s.Snapshot()), snapAnswers(snap); a != b {
		t.Fatalf("snapshots of a quiesced store disagree:\nfresh:\n%s\nfirst:\n%s", a, b)
	}
	recs, live := snap.Recs(), s.IPs()
	if len(recs) != len(live) {
		t.Fatalf("recs %d != %d", len(recs), len(live))
	}
	for i := range recs {
		if recs[i] != live[i] {
			t.Fatalf("rec %d: snapshot %v and store %v hold different records", i, recs[i].Addr, live[i].Addr)
		}
		if snap.IP(recs[i].Addr) != recs[i] {
			t.Fatalf("snapshot IP(%v) misses its record", recs[i].Addr)
		}
	}
	if snap.IP(netip.MustParseAddr("203.0.113.250")) != nil {
		t.Fatal("snapshot IP found an absent address")
	}

	answers := snapAnswers(snap)
	frozen := deepCopy(recs)

	// Addresses for the writes: seed source i is 198.51.0.<i+1>, active on
	// day i%20 with a low-tier connect at hour (i%20)*24. Sources 1 to 7
	// are the other writes' targets. peer is a later source in source 0's
	// shard with no connect in hour 0, so its connect there adds a source
	// to an hour the snapshot counts.
	addr := func(i int) string { return fmt.Sprintf("198.51.0.%d", i+1) }
	peer := ""
	for i := 8; i < 64 && peer == ""; i++ {
		if i%20 != 0 && core.ShardOf(netip.MustParseAddr(addr(i)), 4) == core.ShardOf(netip.MustParseAddr(addr(0)), 4) {
			peer = addr(i)
		}
	}
	med := core.Info{DBMS: core.Postgres, Level: core.Medium, Config: core.ConfigNoLogin, Group: core.GroupMedium}
	redis := core.Info{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}
	login := func(a string, hp core.Info, user, pass string) core.Event {
		e := ev(a, hp, core.EventLogin, 30)
		e.User, e.Pass = user, pass
		return e
	}

	// MarkInstitutional first, on a source no other write touches.
	if n := s.MarkInstitutional([]netip.Addr{netip.MustParseAddr(addr(7))}); n != 1 {
		t.Fatalf("MarkInstitutional applied %d", n)
	}
	s.Record(ev(peer, lowInfo(core.MSSQL), core.EventConnect, 0))          // an hour the snapshot holds
	s.Record(ev(addr(1), lowInfo(core.MSSQL), core.EventConnect, 5))       // a new hour
	s.Record(ev("203.0.113.9", lowInfo(core.MySQL), core.EventConnect, 6)) // a new source
	s.Record(login(addr(2), lowInfo(core.MSSQL), "sa", "pw0"))             // existing credential, low tier
	s.Record(login(addr(2), lowInfo(core.MSSQL), "sa", "fresh"))           // new credential, low tier
	s.Record(login(addr(3), med, "postgres", "pw0"))                       // existing credential, medium tier
	s.Record(login(addr(3), med, "postgres", "fresh"))                     // new credential, medium tier
	cmd := ev(addr(5), redis, core.EventCommand, 5*24+3)                   // source 5 already ran commands
	cmd.Command, cmd.Raw = "FLUSHALL", "FLUSHALL"
	s.Record(cmd)
	s.Record(ev(addr(4), lowInfo(core.MSSQL), core.EventClose, 10*24)) // a new active day
	batch := []core.Event{
		ev(addr(6), lowInfo(core.MSSQL), core.EventConnect, 6*24),
		login(addr(6), lowInfo(core.MSSQL), "sa", "pw1"),
	}
	if err := s.RecordBatchTagged(batch, []byte("tag")); err != nil {
		t.Fatal(err)
	}

	if got := snapAnswers(s.Snapshot()); got == answers {
		t.Fatal("the writes did not reach the store")
	}
	if got := snapAnswers(snap); got != answers {
		t.Fatalf("snapshot answers changed by later writes:\nbefore:\n%s\nafter:\n%s", answers, got)
	}
	for i, r := range snap.Recs() {
		if !reflect.DeepEqual(*r, frozen[i]) {
			t.Fatalf("snapshot record %v changed by later writes:\nbefore %+v\nafter  %+v", r.Addr, frozen[i], *r)
		}
	}
	// And the store holds what the writes made of each record.
	if !s.Snapshot().IP(netip.MustParseAddr(addr(7))).Institutional {
		t.Fatal("MarkInstitutional did not reach the store")
	}
	act := s.Snapshot().IP(netip.MustParseAddr(addr(5))).Per[PerKey{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}]
	if n := len(act.Actions); n != 4 || act.Actions[3].Name != "FLUSHALL" {
		t.Fatalf("store actions = %+v", act.Actions)
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

	// Every snapshot's answers stay what they were when it was taken,
	// however long the writers go on.
	type taken struct {
		snap   *Snapshot
		logins int64
	}
	var snaps []taken
	recheck := func() {
		for _, tk := range snaps {
			if got := tk.snap.Logins(Query{}); got != tk.logins {
				t.Errorf("snapshot logins moved from %d to %d while writers continued", tk.logins, got)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := s.Snapshot()
			// Every observed state must be internally consistent.
			logins := snap.Logins(Query{})
			if logins != snap.Logins(Query{DBMS: core.MSSQL}) {
				t.Errorf("snapshot logins inconsistent: %d", logins)
				return
			}
			var perIP int64
			for _, r := range snap.Recs() {
				perIP += r.TotalLogins()
			}
			if perIP != logins {
				t.Errorf("snapshot records hold %d logins, its credentials %d", perIP, logins)
				return
			}
			snaps = append(snaps, taken{snap, logins})
			recheck()
			_ = snap.UniqueIPs(Query{Tier: LowTier})
			_ = s.Snapshot().Logins(Query{})
			_ = s.IPs()
		}
	}()

	wg.Wait()
	<-done
	recheck()

	want := int64(1024 * 20)
	if got := s.Snapshot().Logins(Query{}); got != want {
		t.Fatalf("final logins = %d, want %d", got, want)
	}
	if got := s.Events(); got != want {
		t.Fatalf("final events = %d, want %d", got, want)
	}
}

// TestConcurrentSessionsSnapshot exercises session ingest against
// snapshots under race detection: one producer per shard commits rounds
// of whole sessions (connect, login, close, all in one hour) while a
// reader snapshots. Within a snapshot every source has as many logins as
// sessions and one hourly count per session, however far the producers
// have got, and every snapshot keeps its answers once taken. Run with
// -race, repeatedly, in CI.
func TestConcurrentSessionsSnapshot(t *testing.T) {
	const (
		shards = 4
		rounds = 24
	)
	s := NewSharded(start, 20, nil, shards)
	perShard := make([][]netip.Addr, shards)
	for i := 0; i < 256; i++ {
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})
		si := core.ShardOf(addr, shards)
		perShard[si] = append(perShard[si], addr)
	}

	var wg sync.WaitGroup
	for _, addrs := range perShard {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var batch []core.Event
				for i, a := range addrs {
					hp := lowInfo([]string{core.MSSQL, core.MySQL}[i%2])
					src := netip.AddrPortFrom(a, uint16(1024+round))
					at := start.Add(time.Duration(round)*time.Hour + time.Duration(i)*time.Second)
					batch = append(batch,
						core.Event{Time: at, Src: src, Honeypot: hp, Kind: core.EventConnect},
						core.Event{Time: at, Src: src, Honeypot: hp, Kind: core.EventLogin, User: "sa", Pass: fmt.Sprint(round)},
						core.Event{Time: at, Src: src, Honeypot: hp, Kind: core.EventClose})
				}
				if err := s.RecordBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	type taken struct {
		snap   *Snapshot
		hourly []int
		cum    []int
		logins int64
	}
	var snaps []taken
	check := func(v *Snapshot) taken {
		tk := taken{v, v.HourlyUnique(Query{}), v.CumulativeNew(Query{}), v.Logins(Query{})}
		var sessions, hours int
		for _, r := range v.Recs() {
			for _, a := range r.Per {
				if int64(a.Sessions) != a.Logins {
					t.Errorf("%v: %d sessions, %d logins", r.Addr, a.Sessions, a.Logins)
				}
				sessions += a.Sessions
			}
		}
		for _, n := range tk.hourly {
			hours += n
		}
		if hours != sessions || int64(sessions) != tk.logins {
			t.Errorf("snapshot: %d sessions, %d hourly counts, %d logins", sessions, hours, tk.logins)
		}
		if last := tk.cum[len(tk.cum)-1]; last != v.UniqueIPs(Query{}) {
			t.Errorf("snapshot: cumulative clients %d, sources %d", last, v.UniqueIPs(Query{}))
		}
		return tk
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snaps = append(snaps, check(s.Snapshot()))
	}
	final := check(s.Snapshot())
	if final.logins != 256*rounds || final.cum[len(final.cum)-1] != 256 {
		t.Fatalf("final: %d logins, %d clients, want %d and 256", final.logins, final.cum[len(final.cum)-1], 256*rounds)
	}
	for i, tk := range snaps {
		if !slices.Equal(tk.snap.HourlyUnique(Query{}), tk.hourly) || !slices.Equal(tk.snap.CumulativeNew(Query{}), tk.cum) || tk.snap.Logins(Query{}) != tk.logins {
			t.Fatalf("snapshot %d of %d changed its answers after it was taken", i, len(snaps))
		}
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
		_, ok := sh.index[addr]
		sh.mu.Unlock()
		if !ok {
			t.Fatalf("addr %v not in shard %d", addr, si)
		}
	}
}

// TestSnapshotStats: every snapshot observes its build time and its
// shard-lock hold time once, and the hold is part of the build.
func TestSnapshotStats(t *testing.T) {
	s := seedStore(t, 4)
	s.Snapshot()
	s.Snapshot()
	st := s.SnapshotStats()
	if st.Build.Count != 2 || st.Lock.Count != 2 {
		t.Fatalf("counts: build %d, lock %d, want 2 and 2", st.Build.Count, st.Lock.Count)
	}
	if st.Lock.Sum > st.Build.Sum || st.Lock.Max > st.Build.Max {
		t.Fatalf("lock %v exceeds build %v", st.Lock, st.Build)
	}
}
