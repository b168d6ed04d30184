package evstore

import (
	"hash/maphash"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/geoip"
)

var start = core.ExperimentStart

func lowInfo(dbms string) core.Info {
	return core.Info{DBMS: dbms, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
}

func ev(addr string, hp core.Info, kind core.EventKind, hourOffset int) core.Event {
	return core.Event{
		Time:     start.Add(time.Duration(hourOffset) * time.Hour),
		Src:      netip.AddrPortFrom(netip.MustParseAddr(addr), 1000),
		Honeypot: hp,
		Kind:     kind,
	}
}

func TestConnectTracking(t *testing.T) {
	s := New(start, 20, nil)
	s.Record(ev("198.51.100.1", lowInfo(core.MSSQL), core.EventConnect, 0))
	s.Record(ev("198.51.100.1", lowInfo(core.MSSQL), core.EventConnect, 1))
	s.Record(ev("198.51.100.2", lowInfo(core.MySQL), core.EventConnect, 1))
	s.Record(ev("198.51.100.3", lowInfo(core.MSSQL), core.EventConnect, 25))

	if got := s.Snapshot().UniqueIPs(Query{}); got != 3 {
		t.Fatalf("unique IPs = %d", got)
	}
	hourly := s.Snapshot().HourlyUnique(Query{})
	if hourly[0] != 1 || hourly[1] != 2 || hourly[25] != 1 {
		t.Fatalf("hourly = %v", hourly[:26])
	}
	mssql := s.Snapshot().HourlyUnique(Query{DBMS: core.MSSQL})
	if mssql[1] != 1 || mssql[25] != 1 {
		t.Fatalf("mssql hourly = %v", mssql[:26])
	}
	cum := s.Snapshot().CumulativeNew(Query{})
	if cum[0] != 1 || cum[1] != 2 || cum[24] != 2 || cum[25] != 3 || cum[479] != 3 {
		t.Fatalf("cumulative = [0]=%d [1]=%d [25]=%d [479]=%d", cum[0], cum[1], cum[25], cum[479])
	}
}

func TestLoginAggregation(t *testing.T) {
	s := New(start, 20, nil)
	hp := lowInfo(core.MSSQL)
	for i := 0; i < 5; i++ {
		e := ev("198.51.100.9", hp, core.EventLogin, i)
		e.User, e.Pass = "sa", "123"
		s.Record(e)
	}
	e := ev("198.51.100.9", hp, core.EventLogin, 6)
	e.User, e.Pass = "sa", "password"
	s.Record(e)

	creds := s.Snapshot().Creds(Query{DBMS: core.MSSQL}, 0)
	if len(creds) != 2 {
		t.Fatalf("creds = %v", creds)
	}
	if creds[0].User != "sa" || creds[0].Pass != "123" || creds[0].Count != 5 {
		t.Fatalf("top cred = %+v", creds[0])
	}
	if s.Snapshot().Logins(Query{DBMS: core.MSSQL}) != 6 {
		t.Fatalf("total logins = %d", s.Snapshot().Logins(Query{DBMS: core.MSSQL}))
	}
	if s.Snapshot().Logins(Query{DBMS: core.MySQL}) != 0 {
		t.Fatal("mysql logins non-zero")
	}
	rec := s.Snapshot().IP(netip.MustParseAddr("198.51.100.9"))
	if rec.TotalLogins() != 6 {
		t.Fatalf("per-IP logins = %d", rec.TotalLogins())
	}
}

func TestActiveDaysBitmask(t *testing.T) {
	s := New(start, 20, nil)
	hp := lowInfo(core.Redis)
	for _, day := range []int{0, 0, 3, 19} {
		s.Record(ev("203.0.113.5", hp, core.EventConnect, day*24+2))
	}
	rec := s.Snapshot().IP(netip.MustParseAddr("203.0.113.5"))
	key := PerKey{DBMS: core.Redis, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
	act := rec.Per[key]
	if act.DayCount() != 3 {
		t.Fatalf("day count = %d", act.DayCount())
	}
	if act.ActiveDays != (1 | 1<<3 | 1<<19) {
		t.Fatalf("mask = %b", act.ActiveDays)
	}
	// Events outside the window are ignored for day tracking.
	s.Record(ev("203.0.113.5", hp, core.EventConnect, 21*24))
	if s.Snapshot().IP(rec.Addr).Per[key].DayCount() != 3 {
		t.Fatal("out-of-window day counted")
	}
}

// TestBeforeWindowMarksNothing: an event before the window start counts
// its session but marks no day and no hour. Dividing a negative offset
// toward zero read 23 hours before the start as day 0 and 30 minutes
// before it as hour 0.
func TestBeforeWindowMarksNothing(t *testing.T) {
	s := New(start, 20, nil)
	hp := lowInfo(core.Redis)
	for _, before := range []time.Duration{23 * time.Hour, 30 * time.Minute, time.Nanosecond} {
		e := ev("203.0.113.6", hp, core.EventConnect, 0)
		e.Time = start.Add(-before)
		s.Record(e)
	}
	snap := s.Snapshot()
	act := snap.IP(netip.MustParseAddr("203.0.113.6")).Per[PerKey{DBMS: core.Redis, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}]
	if act.Sessions != 3 || act.ActiveDays != 0 {
		t.Fatalf("sessions = %d, days = %b, want 3 sessions and no day", act.Sessions, act.ActiveDays)
	}
	for _, dbms := range []string{"", core.Redis} {
		if h := snap.HourlyUnique(Query{DBMS: dbms}); slices.Max(h) != 0 {
			t.Fatalf("%q hourly = %v, want no hour counted", dbms, h[:2])
		}
		if c := snap.CumulativeNew(Query{DBMS: dbms}); c[len(c)-1] != 0 {
			t.Fatalf("%q cumulative ends at %d, want 0", dbms, c[len(c)-1])
		}
	}
}

func TestGeoEnrichment(t *testing.T) {
	db := geoip.Default()
	s := New(start, 20, db)
	alloc := db.ByASN(4134)[0] // Chinanet
	addr := netip.AddrFrom4([4]byte{alloc.Prefix.Addr().As4()[0], alloc.Prefix.Addr().As4()[1], 1, 1})
	s.Record(core.Event{Time: start, Src: netip.AddrPortFrom(addr, 9), Honeypot: lowInfo(core.MSSQL), Kind: core.EventConnect})
	rec := s.Snapshot().IP(addr)
	if rec.Country != "CN" || rec.ASN != 4134 || rec.ASName != "Chinanet" {
		t.Fatalf("enrichment = %+v", rec)
	}
	// Institutional flag follows the AS registry.
	censys := db.ByASN(398324)[0]
	caddr := geoipAddr(censys)
	s.Record(core.Event{Time: start, Src: netip.AddrPortFrom(caddr, 9), Honeypot: lowInfo(core.MSSQL), Kind: core.EventConnect})
	if !s.Snapshot().IP(caddr).Institutional {
		t.Fatal("censys IP not institutional")
	}
}

func geoipAddr(a geoip.Allocation) netip.Addr {
	b := a.Prefix.Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], 0, 1})
}

func TestCommandBounding(t *testing.T) {
	s := New(start, 20, nil)
	hp := core.Info{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}
	for i := 0; i < MaxActionsPerActivity+100; i++ {
		e := ev("192.0.2.8", hp, core.EventCommand, 0)
		e.Command = "GET"
		s.Record(e)
	}
	rec := s.Snapshot().IP(netip.MustParseAddr("192.0.2.8"))
	act := rec.Per[PerKey{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}]
	if len(act.Actions) != MaxActionsPerActivity {
		t.Fatalf("actions = %d", len(act.Actions))
	}
	if act.CommandsRun != MaxActionsPerActivity+100 {
		t.Fatalf("commands run = %d", act.CommandsRun)
	}
}

func TestFirstLastSeen(t *testing.T) {
	s := New(start, 20, nil)
	hp := lowInfo(core.MySQL)
	s.Record(ev("192.0.2.1", hp, core.EventConnect, 10))
	s.Record(ev("192.0.2.1", hp, core.EventConnect, 2))
	s.Record(ev("192.0.2.1", hp, core.EventConnect, 30))
	rec := s.Snapshot().IP(netip.MustParseAddr("192.0.2.1"))
	if rec.FirstSeen != start.Add(2*time.Hour) || rec.LastSeen != start.Add(30*time.Hour) {
		t.Fatalf("first/last = %v / %v", rec.FirstSeen, rec.LastSeen)
	}
}

// Property: login aggregation is order-independent — any permutation of
// the same multiset of login events yields identical counts.
func TestAggregationCommutesQuick(t *testing.T) {
	users := []string{"sa", "admin", "root"}
	passes := []string{"1", "123", "pw"}
	f := func(perm []uint8) bool {
		if len(perm) == 0 || len(perm) > 64 {
			return true
		}
		build := func(order []uint8) map[Cred]int64 {
			s := New(start, 20, nil)
			hp := lowInfo(core.MSSQL)
			for _, p := range order {
				e := ev("198.51.100.77", hp, core.EventLogin, 0)
				e.User = users[int(p)%3]
				e.Pass = passes[int(p/3)%3]
				s.Record(e)
			}
			out := map[Cred]int64{}
			for _, c := range s.Snapshot().Creds(Query{}, 0) {
				out[c.Cred] = c.Count
			}
			return out
		}
		fwd := build(perm)
		rev := make([]uint8, len(perm))
		for i, p := range perm {
			rev[len(perm)-1-i] = p
		}
		bwd := build(rev)
		if len(fwd) != len(bwd) {
			return false
		}
		for k, v := range fwd {
			if bwd[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	s := New(start, 20, nil)
	if !s.Start().Equal(start) || s.Days() != 20 {
		t.Fatal("Start/Days")
	}
	hp := lowInfo(core.MSSQL)
	s.Record(ev("192.0.2.1", hp, core.EventConnect, 0))
	s.Record(ev("192.0.2.2", hp, core.EventConnect, 0))
	if s.Events() != 2 {
		t.Fatalf("Events = %d", s.Events())
	}
	recs := s.IPs()
	if len(recs) != 2 || !recs[0].Addr.Less(recs[1].Addr) {
		t.Fatalf("IPs = %v", recs)
	}
	if applied := s.MarkInstitutional([]netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.99")}); applied != 1 {
		t.Fatalf("MarkInstitutional applied = %d, want 1", applied)
	}
	if !s.Snapshot().IP(netip.MustParseAddr("192.0.2.1")).Institutional {
		t.Fatal("institutional not marked")
	}
	if s.Snapshot().IP(netip.MustParseAddr("192.0.2.2")).Institutional {
		t.Fatal("wrong record marked")
	}
	if s.Snapshot().IP(netip.MustParseAddr("192.0.2.99")) != nil {
		t.Fatal("phantom record created")
	}
}

// TestCredRowsHashClash: two credentials whose index hashes collide keep
// separate rows and tallies. A 64-bit collision is too rare to meet by
// chance, so the test plants one: b's hash is pointed at a's row.
// TestIPsRecordsStayPut: IPs returns a snapshot's records, so events
// recorded after the call leave them as they were.
func TestIPsRecordsStayPut(t *testing.T) {
	s := New(start, 20, nil)
	hp := lowInfo(core.MSSQL)
	s.Record(ev("192.0.2.1", hp, core.EventConnect, 0))
	recs := s.IPs()
	frozen := deepCopy(recs)

	login := ev("192.0.2.1", hp, core.EventLogin, 30)
	login.User, login.Pass = "sa", "x"
	s.Record(login)
	s.Record(ev("192.0.2.1", hp, core.EventConnect, 50))
	s.Record(ev("192.0.2.2", hp, core.EventConnect, 50))
	s.MarkInstitutional([]netip.Addr{netip.MustParseAddr("192.0.2.1")})

	if got := s.Snapshot().IP(recs[0].Addr); got.TotalLogins() != 1 || !got.Institutional {
		t.Fatalf("the writes did not reach the store: %+v", got)
	}
	if len(recs) != 1 || !reflect.DeepEqual(*recs[0], frozen[0]) {
		t.Fatalf("record changed by later writes:\nbefore %+v\nafter  %+v", frozen[0], *recs[0])
	}
}

func TestCredRowsHashClash(t *testing.T) {
	rows := &newShard().creds
	a := Cred{DBMS: core.MSSQL, User: "sa", Pass: "a"}
	b := Cred{DBMS: core.MSSQL, User: "sa", Pass: "b"}
	rows.add(a, true)
	rows.row[maphash.Comparable(rows.seed, b)] = rows.row[maphash.Comparable(rows.seed, a)]
	rows.add(b, true)
	rows.add(b, false)
	rows.add(a, true)
	if rows.n != 2 || len(rows.clash) != 1 {
		t.Fatalf("rows = %d, clashes = %d, want 2 and 1", rows.n, len(rows.clash))
	}
	ch := rows.chunks[0]
	if ch.keys[0] != a || ch.low[0] != 2 || ch.mh[0] != 0 {
		t.Fatalf("row 0 = %+v low=%d mh=%d, want a low=2", ch.keys[0], ch.low[0], ch.mh[0])
	}
	if ch.keys[1] != b || ch.low[1] != 1 || ch.mh[1] != 1 {
		t.Fatalf("row 1 = %+v low=%d mh=%d, want b low=1 mh=1", ch.keys[1], ch.low[1], ch.mh[1])
	}
}

func TestCredTiers(t *testing.T) {
	s := New(start, 20, nil)
	low := lowInfo(core.Postgres)
	med := core.Info{DBMS: core.Postgres, Level: core.Medium, Config: core.ConfigNoLogin, Group: core.GroupMedium}
	mk := func(hp core.Info, user string) core.Event {
		e := ev("192.0.2.9", hp, core.EventLogin, 0)
		e.User, e.Pass = user, "pw"
		return e
	}
	s.Record(mk(low, "postgres"))
	s.Record(mk(med, "postgres"))
	s.Record(mk(med, "admin"))

	if got := s.Snapshot().Logins(Query{DBMS: core.Postgres, Tier: LowTier}); got != 1 {
		t.Fatalf("low logins = %d", got)
	}
	if got := s.Snapshot().Logins(Query{DBMS: core.Postgres, Tier: MediumHighTier}); got != 2 {
		t.Fatalf("med logins = %d", got)
	}
	if got := s.Snapshot().Logins(Query{DBMS: core.Postgres}); got != 3 {
		t.Fatalf("all logins = %d", got)
	}
	lowCreds := s.Snapshot().Creds(Query{DBMS: core.Postgres, Tier: LowTier}, 0)
	if len(lowCreds) != 1 || lowCreds[0].Count != 1 {
		t.Fatalf("low creds = %v", lowCreds)
	}
	// AllTiers merges the tiers: postgres/pw appears once with count 2.
	all := s.Snapshot().Creds(Query{DBMS: core.Postgres}, 0)
	if len(all) != 2 || all[0].User != "postgres" || all[0].Count != 2 {
		t.Fatalf("merged creds = %v", all)
	}
}

func TestActiveDaysMaskFilter(t *testing.T) {
	s := New(start, 20, nil)
	low := lowInfo(core.MySQL)
	med := core.Info{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}
	s.Record(ev("192.0.2.50", low, core.EventConnect, 0))
	s.Record(ev("192.0.2.50", med, core.EventConnect, 24*3))
	rec := s.Snapshot().IP(netip.MustParseAddr("192.0.2.50"))
	if got := rec.ActiveDaysMask(Query{}); got != 0b1001 {
		t.Fatalf("all mask = %b", got)
	}
	medOnly := rec.ActiveDaysMask(Query{Tier: MediumHighTier})
	if medOnly != 0b1000 {
		t.Fatalf("med mask = %b", medOnly)
	}
	ranged := rec.ActiveDaysMask(Query{Days: DayRange{From: 0, To: 2}})
	if ranged != 0b0001 {
		t.Fatalf("ranged mask = %b", ranged)
	}
}

// Regression: the day bitmask is 64 bits wide. A 33-day window used to
// overflow the old 32-bit mask (activity on days 32+ silently vanished
// from DayCount and every DayRange query); both 33 and the full 64 days
// must now track day activity exactly.
func TestDayMask33DayWindow(t *testing.T) {
	s := New(start, 33, nil)
	hp := lowInfo(core.Redis)
	for _, day := range []int{0, 31, 32} {
		s.Record(ev("203.0.113.40", hp, core.EventConnect, day*24))
	}
	rec := s.Snapshot().IP(netip.MustParseAddr("203.0.113.40"))
	key := PerKey{DBMS: core.Redis, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
	if got := rec.Per[key].DayCount(); got != 3 {
		t.Fatalf("day count = %d, want 3 (day 32 lost past a 32-bit mask)", got)
	}
	if want := uint64(1) | 1<<31 | 1<<32; rec.Per[key].ActiveDays != want {
		t.Fatalf("mask = %b, want %b", rec.Per[key].ActiveDays, want)
	}
	if got := rec.ActiveDaysMask(Query{Days: DayRange{From: 32, To: 33}}); got != 1<<32 {
		t.Fatalf("ranged mask = %b, want bit 32", got)
	}
}

func TestDayMask64DayWindow(t *testing.T) {
	s := New(start, MaxDays, nil)
	hp := lowInfo(core.Redis)
	for _, day := range []int{0, 63} {
		s.Record(ev("203.0.113.41", hp, core.EventConnect, day*24))
	}
	rec := s.Snapshot().IP(netip.MustParseAddr("203.0.113.41"))
	key := PerKey{DBMS: core.Redis, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
	if got := rec.Per[key].DayCount(); got != 2 {
		t.Fatalf("day count = %d, want 2", got)
	}
	if rec.Per[key].ActiveDays != 1|1<<63 {
		t.Fatalf("mask = %b", rec.Per[key].ActiveDays)
	}
}

func TestNewRejectsLongWindows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("%d-day window accepted (day bitmask is %d bits)", MaxDays+1, MaxDays)
		}
	}()
	New(start, MaxDays+1, nil)
}
