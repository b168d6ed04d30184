package obs

import (
	"bytes"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"decoydb/internal/core"
)

var traceStart = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)

func traceEvent(src string, hp core.Info, kind core.EventKind, at time.Duration) core.Event {
	return core.Event{
		Time:     traceStart.Add(at),
		Src:      netip.MustParseAddrPort(src),
		Honeypot: hp,
		Kind:     kind,
	}
}

// TestTraceLifecycle walks one session banner → auth → query → close
// and checks the completed span: phases, counters, and the classify
// verdict escalating to exploiting on a destructive Redis command.
func TestTraceLifecycle(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigDefault}
	tr := NewTraceRing(TraceOptions{})

	ev := []core.Event{
		traceEvent("203.0.113.9:40000", hp, core.EventConnect, 0),
		traceEvent("203.0.113.9:40000", hp, core.EventLogin, time.Second),
		traceEvent("203.0.113.9:40000", hp, core.EventCommand, 2*time.Second),
		traceEvent("203.0.113.9:40000", hp, core.EventClose, 3*time.Second),
	}
	ev[2].Command = "FLUSHALL"
	if err := tr.RecordBatch(ev); err != nil {
		t.Fatal(err)
	}

	if n := len(tr.Active(0)); n != 0 {
		t.Fatalf("%d active spans after close, want 0", n)
	}
	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("%d completed spans, want 1", len(recent))
	}
	sp := recent[0]
	if sp.Phase != PhaseQuery {
		t.Errorf("final phase %q, want %q", sp.Phase, PhaseQuery)
	}
	if len(sp.Transitions) != 3 {
		t.Fatalf("transitions %v, want banner/auth/query", sp.Transitions)
	}
	for i, phase := range []string{PhaseBanner, PhaseAuth, PhaseQuery} {
		if sp.Transitions[i].Phase != phase {
			t.Errorf("transition %d = %q, want %q", i, sp.Transitions[i].Phase, phase)
		}
	}
	if sp.Events != 4 || sp.Logins != 1 || sp.Commands != 1 {
		t.Errorf("counters events=%d logins=%d commands=%d", sp.Events, sp.Logins, sp.Commands)
	}
	if sp.Verdict != "exploiting" {
		t.Errorf("verdict %q, want exploiting (FLUSHALL)", sp.Verdict)
	}
	if sp.End.Sub(sp.Start) != 3*time.Second {
		t.Errorf("span duration %s, want 3s", sp.End.Sub(sp.Start))
	}
	if st := tr.Stats(); st.Verdicts["exploiting"] != 1 {
		t.Errorf("verdict stats %v", st.Verdicts)
	}
}

// TestTraceRecordFormatsNothing: recording an event into an active span
// allocates nothing, so it formats no honeypot ID; the spans still name
// the honeypot by core.Info.ID, active and completed.
func TestTraceRecordFormatsNothing(t *testing.T) {
	hp := core.Info{DBMS: core.MSSQL, Level: core.Low, Group: core.GroupMulti, Config: core.ConfigDefault, Instance: 3}
	tr := NewTraceRing(TraceOptions{})
	login := traceEvent("203.0.113.9:40000", hp, core.EventLogin, time.Second)
	if err := tr.RecordBatch([]core.Event{traceEvent("203.0.113.9:40000", hp, core.EventConnect, 0), login}); err != nil {
		t.Fatal(err)
	}
	batch := []core.Event{login}
	if n := testing.AllocsPerRun(100, func() { tr.RecordBatch(batch) }); n != 0 {
		t.Fatalf("recording a login into an active span allocates %v times, want 0", n)
	}
	const want = "mssql/multi/default-03"
	if a := tr.Active(0); len(a) != 1 || a[0].Honeypot != want {
		t.Fatalf("active spans %+v, want one on %s", a, want)
	}
	tr.Record(traceEvent("203.0.113.9:40000", hp, core.EventClose, 2*time.Second))
	if r := tr.Recent(0); len(r) != 1 || r[0].Honeypot != want || r[0].Logins != 102 {
		t.Fatalf("completed spans %+v, want one on %s with 102 logins", r, want)
	}
}

// TestTracePhaseNeverRegresses: a login arriving after commands does not
// pull the span back into the auth phase.
func TestTracePhaseNeverRegresses(t *testing.T) {
	hp := core.Info{DBMS: core.MongoDB, Level: core.Medium}
	tr := NewTraceRing(TraceOptions{})
	tr.Record(traceEvent("198.51.100.1:10", hp, core.EventConnect, 0))
	cmd := traceEvent("198.51.100.1:10", hp, core.EventCommand, time.Second)
	cmd.Command = "FIND"
	tr.Record(cmd)
	tr.Record(traceEvent("198.51.100.1:10", hp, core.EventLogin, 2*time.Second))
	spans := tr.Active(0)
	if len(spans) != 1 {
		t.Fatalf("%d active spans, want 1", len(spans))
	}
	sp := &spans[0]
	if sp.Phase != PhaseQuery {
		t.Errorf("phase %q after late login, want %q", sp.Phase, PhaseQuery)
	}
	if len(sp.Transitions) != 2 {
		t.Errorf("transitions %v, want banner+query only", sp.Transitions)
	}
}

// traceSrc returns the i-th of many distinct source addresses.
func traceSrc(i int) string {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)}), 100).String()
}

// TestTraceEviction: the active cap force-completes the oldest span.
func TestTraceEviction(t *testing.T) {
	hp := core.Info{DBMS: core.Postgres, Level: core.Low}
	tr := NewTraceRing(TraceOptions{})
	for i := 0; i <= maxActive; i++ {
		tr.Record(traceEvent(traceSrc(i), hp, core.EventConnect, time.Duration(i)*time.Second))
	}

	if n := len(tr.Active(0)); n != maxActive {
		t.Fatalf("%d active spans, want %d (cap)", n, maxActive)
	}
	st := tr.Stats()
	if st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
	recent := tr.Recent(0)
	if len(recent) != 1 || recent[0].Src != traceSrc(0) {
		t.Errorf("evicted span = %+v, want the oldest (%s)", recent, traceSrc(0))
	}
}

// TestTraceEvictsLeastRecentlyActive: at the active cap the span that
// went quiet is closed, not the one that arrived first — a long session
// that keeps sending outlives an idle span that lost its Close.
func TestTraceEvictsLeastRecentlyActive(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Low}
	tr := NewTraceRing(TraceOptions{})
	for i := 0; i < maxActive; i++ {
		tr.Record(traceEvent(traceSrc(i), hp, core.EventConnect, time.Duration(i)*time.Second))
	}
	busy := traceEvent(traceSrc(0), hp, core.EventCommand, maxActive*time.Second)
	busy.Command = "INFO"
	tr.Record(busy)
	tr.Record(traceEvent(traceSrc(maxActive), hp, core.EventConnect, (maxActive+1)*time.Second))

	recent := tr.Recent(0)
	if len(recent) != 1 || recent[0].Src != traceSrc(1) {
		t.Fatalf("evicted %+v, want the idle span %s", recent, traceSrc(1))
	}
	if !recent[0].End.Equal(traceStart.Add(time.Second)) {
		t.Errorf("evicted span ends %v, want its last event", recent[0].End)
	}
	active := map[string]bool{}
	for _, sp := range tr.Active(0) {
		active[sp.Src] = true
	}
	if len(active) != maxActive || !active[traceSrc(0)] || !active[traceSrc(maxActive)] || active[traceSrc(1)] {
		t.Fatalf("%d active spans, want %d with the busy %s and the new %s", len(active), maxActive, traceSrc(0), traceSrc(maxActive))
	}
	if st := tr.Stats(); st.Evicted != 1 || st.Completed != 1 {
		t.Errorf("evicted %d completed %d, want 1/1", st.Evicted, st.Completed)
	}
}

// TestTraceRingWrap: the completed ring keeps only the newest ringSize
// spans.
func TestTraceRingWrap(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Low}
	tr := NewTraceRing(TraceOptions{})
	const closed = ringSize + 2
	for i := 0; i < closed; i++ {
		at := time.Duration(i) * time.Minute
		tr.Record(traceEvent(traceSrc(i), hp, core.EventConnect, at))
		tr.Record(traceEvent(traceSrc(i), hp, core.EventClose, at+time.Second))
	}
	recent := tr.Recent(0)
	if len(recent) != ringSize {
		t.Fatalf("%d retained spans, want %d", len(recent), ringSize)
	}
	if recent[0].Src != traceSrc(closed-1) || recent[1].Src != traceSrc(closed-2) || recent[ringSize-1].Src != traceSrc(2) {
		t.Errorf("retained %q, %q … %q, want newest first %s, %s … %s",
			recent[0].Src, recent[1].Src, recent[ringSize-1].Src, traceSrc(closed-1), traceSrc(closed-2), traceSrc(2))
	}
	if r := tr.Recent(2); len(r) != 2 || r[0].Src != recent[0].Src || r[1].Src != recent[1].Src {
		t.Errorf("Recent(2) = %+v, want the two newest", r)
	}
	if st := tr.Stats(); st.Completed != closed {
		t.Errorf("completed = %d, want %d", st.Completed, closed)
	}
}

// TestTraceLoneClose: a close with no live span (restart, eviction) is
// dropped rather than fabricating an empty span.
func TestTraceLoneClose(t *testing.T) {
	tr := NewTraceRing(TraceOptions{})
	tr.Record(traceEvent("192.0.2.9:5", core.Info{DBMS: core.Redis}, core.EventClose, 0))
	if len(tr.Active(0)) != 0 || len(tr.Recent(0)) != 0 {
		t.Error("lone close created a span")
	}
}

// TestTraceActionBound: a span keeps counting commands however many it
// runs, and its verdict stays the fold of all of them.
func TestTraceActionBound(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Medium}
	tr := NewTraceRing(TraceOptions{})
	tr.Record(traceEvent("192.0.2.7:9", hp, core.EventConnect, 0))
	for i := 0; i < 100; i++ {
		ev := traceEvent("192.0.2.7:9", hp, core.EventCommand, time.Duration(i)*time.Second)
		ev.Command = "INFO"
		tr.Record(ev)
	}
	sp := tr.Active(0)[0]
	if sp.Commands != 100 {
		t.Errorf("commands = %d, want 100", sp.Commands)
	}
	if sp.Verdict != "scouting" {
		t.Errorf("verdict %q, want scouting (INFO)", sp.Verdict)
	}
}

// TestTraceExploitAfterManyCommands: the verdict is the fold of every
// command, so an exploit-grade command after 32 scouting ones still
// makes the span exploiting, live and in decoydb_traces_verdict_total.
// The stream analyzer's fold of classify.Step says the same.
func TestTraceExploitAfterManyCommands(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigDefault}
	tr := NewTraceRing(TraceOptions{})
	src := "192.0.2.8:9"
	tr.Record(traceEvent(src, hp, core.EventConnect, 0))
	for i := 1; i <= 33; i++ {
		ev := traceEvent(src, hp, core.EventCommand, time.Duration(i)*time.Second)
		ev.Command = "INFO"
		if i == 33 {
			ev.Command = "FLUSHALL"
		}
		tr.Record(ev)
	}
	if sp := tr.Active(0); len(sp) != 1 || sp[0].Verdict != "exploiting" {
		t.Fatalf("active spans %+v, want one exploiting", sp)
	}
	tr.Record(traceEvent(src, hp, core.EventClose, time.Minute))
	if sp := tr.Recent(0); len(sp) != 1 || sp[0].Verdict != "exploiting" || sp[0].Commands != 33 {
		t.Fatalf("completed spans %+v, want one exploiting with 33 commands", sp)
	}
	reg := NewRegistry()
	reg.Register(tr)
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`decoydb_traces_verdict_total{verdict="exploiting"} 1`,
		`decoydb_traces_verdict_total{verdict="scouting"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestTraceSessionAllocs: a whole session allocates once in the ring,
// for its table entry, and closing a span allocates nothing: it is
// rendered only when read.
func TestTraceSessionAllocs(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigDefault}
	tr := NewTraceRing(TraceOptions{})
	src := "203.0.113.9:40000"
	session := []core.Event{
		traceEvent(src, hp, core.EventConnect, 0),
		traceEvent(src, hp, core.EventLogin, time.Second),
		traceEvent(src, hp, core.EventCommand, 2*time.Second),
		traceEvent(src, hp, core.EventClose, 3*time.Second),
	}
	session[2].Command, session[2].Raw = "CONFIG SET dir", "CONFIG SET dir /var/spool/cron"
	if n := testing.AllocsPerRun(100, func() { tr.RecordBatch(session) }); n > 1 {
		t.Errorf("a whole session allocates %v times in the ring, want at most 1", n)
	}

	const runs = 100
	var closes []core.Event
	for i := 0; i <= runs; i++ {
		tr.Record(traceEvent(traceSrc(i), hp, core.EventConnect, 0))
		closes = append(closes, traceEvent(traceSrc(i), hp, core.EventClose, time.Second))
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { tr.Record(closes[next]); next++ }); n != 0 {
		t.Errorf("closing a span allocates %v times, want 0", n)
	}
	if st := tr.Stats(); st.Active != 0 || st.Completed != 101+runs+1 || st.Verdicts["exploiting"] != 101 {
		t.Errorf("stats %+v, want 0 active, %d completed, 101 exploiting", st, 101+runs+1)
	}
}

// TestTraceRingConcurrent: bus workers, collector connections and
// /traces requests share one ring. Writers record whole sessions while
// readers render it; every close is counted once, under one verdict.
// Run it under -race.
func TestTraceRingConcurrent(t *testing.T) {
	tr := NewTraceRing(TraceOptions{Verdicts: func(netip.Addr) (string, bool) { return "scouting", true }})
	h := NewServer(ServerOptions{Traces: tr}).Handler()
	hps := []core.Info{
		{DBMS: core.Redis, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigDefault},
		{DBMS: core.Postgres, Level: core.Low, Group: core.GroupMulti, Config: core.ConfigDefault, Instance: 2},
	}
	const writers, sessions = 4, 300
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.Active(10)
				tr.Recent(10)
				tr.Stats()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces?limit=5", nil))
				if rec.Code != 200 {
					t.Errorf("/traces: %d", rec.Code)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(w), byte(i >> 8), byte(i)}), 5000).String()
				hp := hps[i%len(hps)]
				ev := []core.Event{
					traceEvent(src, hp, core.EventConnect, 0),
					traceEvent(src, hp, core.EventLogin, time.Second),
					traceEvent(src, hp, core.EventCommand, 2*time.Second),
					traceEvent(src, hp, core.EventClose, 3*time.Second),
				}
				ev[2].Command = "INFO"
				if i%3 == 0 {
					ev[2].Command = "FLUSHALL"
				}
				if i%2 == 0 {
					tr.RecordBatch(ev)
					continue
				}
				for _, e := range ev {
					tr.Record(e)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := tr.Stats()
	if st.Active != 0 || st.Completed != writers*sessions || st.Evicted != 0 {
		t.Fatalf("stats %+v, want 0 active, %d completed, 0 evicted", st, writers*sessions)
	}
	var sum uint64
	for _, n := range st.Verdicts {
		sum += n
	}
	if sum != st.Completed {
		t.Fatalf("verdicts %v sum to %d, want %d", st.Verdicts, sum, st.Completed)
	}
	if len(tr.Recent(0)) != ringSize {
		t.Fatalf("%d retained spans, want %d", len(tr.Recent(0)), ringSize)
	}
}
