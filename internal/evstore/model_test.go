package evstore

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"decoydb/internal/core"
)

// model is a plain map-based reference store: every event is kept as
// given with the day and hour of the window it falls in (-1 outside),
// and every read recomputes its answer from them.
type model struct {
	days   int
	events []core.Event
	day    []int
	hour   []int
}

func (m *model) add(events []core.Event) {
	for _, e := range events {
		d, ok := slot(e.Time, 24*time.Hour, m.days)
		if !ok {
			d = -1
		}
		h, ok := slot(e.Time, time.Hour, m.days*24)
		if !ok {
			h = -1
		}
		m.events, m.day, m.hour = append(m.events, e), append(m.day, d), append(m.hour, h)
	}
}

// slot returns the index of the width-long slot of the window that holds
// t, counting n slots from the window start, or false outside them.
func slot(t time.Time, width time.Duration, n int) (int, bool) {
	for i := 0; i < n; i++ {
		from := start.Add(time.Duration(i) * width)
		if !t.Before(from) && t.Before(from.Add(width)) {
			return i, true
		}
	}
	return 0, false
}

type modelAct struct {
	sessions, logins, ok, commands int64
	days                           uint64
	actions                        []Action
}

type modelRec struct {
	first, last time.Time
	per         map[PerKey]*modelAct
}

func (m *model) recs() map[netip.Addr]*modelRec {
	out := map[netip.Addr]*modelRec{}
	for i, e := range m.events {
		r := out[e.Src.Addr()]
		if r == nil {
			r = &modelRec{first: e.Time, last: e.Time, per: map[PerKey]*modelAct{}}
			out[e.Src.Addr()] = r
		}
		if e.Time.Before(r.first) {
			r.first = e.Time
		}
		if e.Time.After(r.last) {
			r.last = e.Time
		}
		k := PerKey{DBMS: e.Honeypot.DBMS, Level: e.Honeypot.Level, Config: e.Honeypot.Config, Group: e.Honeypot.Group}
		a := r.per[k]
		if a == nil {
			a = &modelAct{}
			r.per[k] = a
		}
		if d := m.day[i]; d >= 0 {
			a.days |= 1 << d
		}
		switch e.Kind {
		case core.EventConnect:
			a.sessions++
		case core.EventLogin:
			a.logins++
			if e.OK {
				a.ok++
			}
		case core.EventCommand:
			a.commands++
			if len(a.actions) < MaxActionsPerActivity {
				a.actions = append(a.actions, Action{Name: e.Command, Raw: e.Raw})
			}
		}
	}
	return out
}

// lowConnects returns, per hour of the window, the sources that connected
// to a low-tier honeypot of dbms ("" = any) in it.
func (m *model) lowConnects(dbms string) []map[netip.Addr]bool {
	out := make([]map[netip.Addr]bool, m.days*24)
	for h := range out {
		out[h] = map[netip.Addr]bool{}
	}
	for i, e := range m.events {
		if e.Kind != core.EventConnect || e.Honeypot.Level != core.Low || (dbms != "" && e.Honeypot.DBMS != dbms) {
			continue
		}
		if h := m.hour[i]; h >= 0 {
			out[h][e.Src.Addr()] = true
		}
	}
	return out
}

// reader is what both a Snapshot and the model answer.
type reader interface {
	hourly(q Query) (unique, cumulative []int)
	creds(q Query) []CredCount
	logins(q Query) int64
	selected(q Query) []netip.Addr
	records() []string // every record, rendered, in address order
}

type snapReader struct{ *Snapshot }

func (v snapReader) hourly(q Query) ([]int, []int) { return v.HourlyUnique(q), v.CumulativeNew(q) }
func (v snapReader) creds(q Query) []CredCount     { return v.Creds(q, 0) }
func (v snapReader) logins(q Query) int64          { return v.Logins(q) }
func (v snapReader) selected(q Query) []netip.Addr {
	var out []netip.Addr
	for _, r := range v.Select(q) {
		out = append(out, r.Addr)
	}
	if n := v.UniqueIPs(q); n != len(out) {
		out = append(out, netip.IPv6Unspecified()) // a mismatch the comparison shows
	}
	return out
}

func (v snapReader) records() []string {
	var out []string
	for _, r := range v.Recs() {
		out = append(out, renderRec(r.Addr, r.FirstSeen, r.LastSeen, r.Per))
	}
	return out
}

func renderRec(addr netip.Addr, first, last time.Time, per map[PerKey]*Activity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v..%v", addr, first.Sub(start), last.Sub(start))
	for _, k := range slices.SortedFunc(maps.Keys(per), func(a, b PerKey) int {
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	}) {
		a := per[k]
		fmt.Fprintf(&b, " %v:s%d/l%d/ok%d/c%d/d%b/%v", k, a.Sessions, a.Logins, a.LoginOK, a.CommandsRun, a.ActiveDays, a.Actions)
	}
	return b.String()
}

type modelReader struct {
	*model
	recs  map[netip.Addr]*modelRec
	hours map[string][]map[netip.Addr]bool // lowConnects per DBMS
}

func newModelReader(m *model) modelReader {
	r := modelReader{m, m.recs(), map[string][]map[netip.Addr]bool{}}
	for _, dbms := range modelDBMS {
		r.hours[dbms] = m.lowConnects(dbms)
	}
	return r
}

func (m modelReader) hourly(q Query) ([]int, []int) {
	lo, hi := hourSpan(q, m.days)
	sets := m.hours[q.DBMS]
	unique, cumulative := make([]int, hi-lo), make([]int, hi-lo)
	seen := map[netip.Addr]bool{}
	for h := lo; h < hi; h++ {
		unique[h-lo] = len(sets[h])
		maps.Copy(seen, sets[h])
		cumulative[h-lo] = len(seen)
	}
	return unique, cumulative
}

func (m modelReader) creds(q Query) []CredCount {
	tally := map[Cred]int64{}
	for _, e := range m.events {
		if e.Kind == core.EventLogin && q.MatchKey(PerKey{DBMS: e.Honeypot.DBMS, Level: e.Honeypot.Level}) {
			tally[Cred{DBMS: e.Honeypot.DBMS, User: e.User, Pass: e.Pass}]++
		}
	}
	var out []CredCount
	for c, n := range tally {
		out = append(out, CredCount{Cred: c, Count: n})
	}
	slices.SortFunc(out, CompareCreds)
	return out
}

func (m modelReader) logins(q Query) int64 {
	var n int64
	for _, c := range m.creds(q) {
		n += c.Count
	}
	return n
}

func (m modelReader) selected(q Query) []netip.Addr {
	var out []netip.Addr
	for _, addr := range slices.SortedFunc(maps.Keys(m.recs), netip.Addr.Compare) {
		match := false
		for k, a := range m.recs[addr].per {
			inDays := q.Days.IsZero() || a.days&q.Days.Mask(m.days) != 0
			match = match || (q.MatchKey(k) && inDays)
		}
		if match {
			out = append(out, addr)
		}
	}
	return out
}

func (m modelReader) records() []string {
	var out []string
	for _, addr := range slices.SortedFunc(maps.Keys(m.recs), netip.Addr.Compare) {
		r := m.recs[addr]
		per := map[PerKey]*Activity{}
		for k, a := range r.per {
			per[k] = &Activity{Sessions: int(a.sessions), Logins: a.logins, LoginOK: a.ok, CommandsRun: a.commands, ActiveDays: a.days, Actions: a.actions}
		}
		out = append(out, renderRec(addr, r.first, r.last, per))
	}
	return out
}

var (
	modelDBMS  = []string{"", core.MySQL, core.MSSQL, core.Postgres, core.Redis}
	modelSpans = []DayRange{{}, {From: 0, To: 1}, {From: 3, To: 9}, {From: 19, To: 20}, {From: 12}}
	modelTiers = []Tier{AllTiers, LowTier, MediumHighTier}
)

// answer is one read's result, labelled with the read and its query.
type answer struct {
	read  string
	value any
}

// answers returns every read the model test compares.
func answers(r reader) []answer {
	out := []answer{{"records", r.records()}}
	for _, dbms := range modelDBMS {
		for _, days := range modelSpans {
			q := Query{DBMS: dbms, Days: days}
			unique, cumulative := r.hourly(q)
			out = append(out, answer{fmt.Sprintf("HourlyUnique(%+v)", q), unique}, answer{fmt.Sprintf("CumulativeNew(%+v)", q), cumulative})
		}
		for _, tier := range modelTiers {
			q := Query{DBMS: dbms, Tier: tier}
			out = append(out, answer{fmt.Sprintf("Logins(%+v)", q), r.logins(q)}, answer{fmt.Sprintf("Creds(%+v)", q), r.creds(q)})
			for _, days := range modelSpans[:3] {
				q.Days = days
				out = append(out, answer{fmt.Sprintf("Select(%+v)", q), r.selected(q)})
			}
		}
	}
	return out
}

// firstDiff describes the first answer in which got and want differ, down
// to the first differing element of a list, or returns "" when they agree.
func firstDiff(got, want []answer) string {
	for i, w := range want {
		if reflect.DeepEqual(got[i], w) {
			continue
		}
		g, wv := reflect.ValueOf(got[i].value), reflect.ValueOf(w.value)
		if g.Kind() != reflect.Slice {
			return fmt.Sprintf("%s:\n got %v\nwant %v", w.read, g, wv)
		}
		for j := range min(g.Len(), wv.Len()) {
			if !reflect.DeepEqual(g.Index(j).Interface(), wv.Index(j).Interface()) {
				return fmt.Sprintf("%s, element %d:\n got %v\nwant %v", w.read, j, g.Index(j), wv.Index(j))
			}
		}
		return fmt.Sprintf("%s: %d elements, want %d", w.read, g.Len(), wv.Len())
	}
	return ""
}

// modelHoneypots are the groupings the streams visit: every low-tier
// DBMS, two low-tier groups on one DBMS, two instances of one grouping,
// and the medium and high tiers.
var modelHoneypots = []core.Info{
	lowInfo(core.MySQL), lowInfo(core.MSSQL), lowInfo(core.Postgres), lowInfo(core.Redis),
	{DBMS: core.MSSQL, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupSingle},
	{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium, Instance: 0},
	{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium, Instance: 1},
	{DBMS: core.Postgres, Level: core.Medium, Config: core.ConfigNoLogin, Group: core.GroupMedium},
	{DBMS: core.MySQL, Level: core.High, Config: core.ConfigDefault, Group: core.GroupHigh},
}

// modelSession makes one session: usually a connect, then logins and
// commands, then a close, each some minutes after the one before, so a
// session can cross an hour or day boundary. Some sessions are a lone
// login or command, as bench/'s preload and mid-session restarts send.
func modelSession(r *rand.Rand, srcs []netip.Addr, days int) []core.Event {
	src := netip.AddrPortFrom(srcs[r.Intn(len(srcs))], uint16(1024+r.Intn(1000)))
	hp := modelHoneypots[r.Intn(len(modelHoneypots))]
	// A start from two days before the window to two days after it.
	t := start.Add(time.Duration(r.Int63n(int64(days+4)*24*int64(time.Hour))) - 48*time.Hour)
	mk := func(kind core.EventKind) core.Event {
		e := core.Event{Time: t, Src: src, Honeypot: hp, Kind: kind}
		switch kind {
		case core.EventLogin:
			e.User, e.Pass, e.OK = []string{"sa", "root"}[r.Intn(2)], fmt.Sprint(r.Intn(4)), r.Intn(4) == 0
		case core.EventCommand:
			e.Command = []string{"INFO", "SET", "SELECT"}[r.Intn(3)]
			e.Raw = e.Command + " " + fmt.Sprint(r.Intn(10))
		}
		t = t.Add(time.Duration(r.Intn(90)) * time.Minute)
		return e
	}
	if r.Intn(6) == 0 {
		return []core.Event{mk([]core.EventKind{core.EventLogin, core.EventCommand}[r.Intn(2)])}
	}
	out := []core.Event{mk(core.EventConnect)}
	for n := r.Intn(4); n > 0; n-- {
		out = append(out, mk([]core.EventKind{core.EventLogin, core.EventCommand}[r.Intn(2)]))
	}
	return append(out, mk(core.EventClose))
}

// modelBatch makes one batch of sessions, either one after another or
// with their events interleaved at random.
func modelBatch(r *rand.Rand, srcs []netip.Addr, days int) []core.Event {
	sessions := make([][]core.Event, 1+r.Intn(6))
	for i := range sessions {
		sessions[i] = modelSession(r, srcs, days)
	}
	var out []core.Event
	if r.Intn(2) == 0 {
		for _, s := range sessions {
			out = append(out, s...)
		}
		return out
	}
	for len(sessions) > 0 {
		i := r.Intn(len(sessions))
		out = append(out, sessions[i][0])
		if sessions[i] = sessions[i][1:]; len(sessions[i]) == 0 {
			sessions = slices.Delete(sessions, i, i+1)
		}
	}
	return out
}

// TestStoreMatchesModel feeds seeded random event streams into stores of
// 1, 2 and 8 shards: low and medium/high honeypots, every event kind,
// times before, inside and after the window, and sessions one after
// another and interleaved. After every batch each Snapshot read must
// equal the model's, and at the end every earlier snapshot must still
// give the answers it gave when it was taken.
func TestStoreMatchesModel(t *testing.T) {
	const days = 20
	seeds, batches := []int64{1, 2, 3}, 40
	if testing.Short() {
		seeds, batches = seeds[:1], 25
	}
	for _, seed := range seeds {
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				srcs := make([]netip.Addr, 12)
				for i := range srcs {
					srcs[i] = netip.AddrFrom4([4]byte{198, 51, byte(i % 3), byte(1 + i)})
				}
				s := NewSharded(start, days, nil, shards)
				m := &model{days: days}
				type taken struct {
					snap *Snapshot
					want []answer
				}
				var snaps []taken
				for b := 0; b < batches; b++ {
					batch := modelBatch(r, srcs, days)
					if b%5 == 4 {
						for _, e := range batch {
							s.Record(e)
						}
					} else if err := s.RecordBatch(batch); err != nil {
						t.Fatal(err)
					}
					m.add(batch)
					want := answers(newModelReader(m))
					snap := s.Snapshot()
					if diff := firstDiff(answers(snapReader{snap}), want); diff != "" {
						t.Fatalf("batch %d: snapshot differs from the model in %s", b, diff)
					}
					snaps = append(snaps, taken{snap, want})
				}
				for b, tk := range snaps {
					if diff := firstDiff(answers(snapReader{tk.snap}), tk.want); diff != "" {
						t.Fatalf("snapshot after batch %d changed by later writes in %s", b, diff)
					}
				}
			})
		}
	}
}
