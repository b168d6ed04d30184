package obs

import (
	"net/netip"
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

// TestTraceEviction: the active cap force-completes the oldest span.
func TestTraceEviction(t *testing.T) {
	hp := core.Info{DBMS: core.Postgres, Level: core.Low}
	tr := NewTraceRing(TraceOptions{MaxActive: 2})
	tr.Record(traceEvent("192.0.2.1:100", hp, core.EventConnect, 0))
	tr.Record(traceEvent("192.0.2.2:100", hp, core.EventConnect, time.Second))
	tr.Record(traceEvent("192.0.2.3:100", hp, core.EventConnect, 2*time.Second))

	if n := len(tr.Active(0)); n != 2 {
		t.Fatalf("%d active spans, want 2 (cap)", n)
	}
	st := tr.Stats()
	if st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
	recent := tr.Recent(0)
	if len(recent) != 1 || recent[0].Src != "192.0.2.1:100" {
		t.Errorf("evicted span = %+v, want the oldest (192.0.2.1)", recent)
	}
}

// TestTraceEvictsLeastRecentlyActive: at MaxActive the span that went
// quiet is closed, not the one that arrived first — a long session that
// keeps sending outlives an idle span that lost its Close.
func TestTraceEvictsLeastRecentlyActive(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Low}
	tr := NewTraceRing(TraceOptions{MaxActive: 2})
	tr.Record(traceEvent("192.0.2.1:100", hp, core.EventConnect, 0))
	tr.Record(traceEvent("192.0.2.2:100", hp, core.EventConnect, time.Second))
	busy := traceEvent("192.0.2.1:100", hp, core.EventCommand, 2*time.Second)
	busy.Command = "INFO"
	tr.Record(busy)
	tr.Record(traceEvent("192.0.2.3:100", hp, core.EventConnect, 3*time.Second))

	recent := tr.Recent(0)
	if len(recent) != 1 || recent[0].Src != "192.0.2.2:100" {
		t.Fatalf("evicted %+v, want the idle span 192.0.2.2", recent)
	}
	if !recent[0].End.Equal(traceStart.Add(time.Second)) {
		t.Errorf("evicted span ends %v, want its last event", recent[0].End)
	}
	active := map[string]bool{}
	for _, sp := range tr.Active(0) {
		active[sp.Src] = true
	}
	if len(active) != 2 || !active["192.0.2.1:100"] || !active["192.0.2.3:100"] {
		t.Fatalf("active spans %v, want the busy 192.0.2.1 and the new 192.0.2.3", active)
	}
	if st := tr.Stats(); st.Evicted != 1 || st.Completed != 1 {
		t.Errorf("evicted %d completed %d, want 1/1", st.Evicted, st.Completed)
	}
}

// TestTraceRingWrap: the completed ring keeps only the newest Ring spans.
func TestTraceRingWrap(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Low}
	tr := NewTraceRing(TraceOptions{Ring: 2})
	for i, src := range []string{"192.0.2.1:1", "192.0.2.2:1", "192.0.2.3:1"} {
		at := time.Duration(i) * time.Minute
		tr.Record(traceEvent(src, hp, core.EventConnect, at))
		tr.Record(traceEvent(src, hp, core.EventClose, at+time.Second))
	}
	recent := tr.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("%d retained spans, want 2", len(recent))
	}
	if recent[0].Src != "192.0.2.3:1" || recent[1].Src != "192.0.2.2:1" {
		t.Errorf("retained %q then %q, want newest first 192.0.2.3, 192.0.2.2",
			recent[0].Src, recent[1].Src)
	}
	if st := tr.Stats(); st.Completed != 3 {
		t.Errorf("completed = %d, want 3", st.Completed)
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

// TestTraceActionBound: the per-span action list stops growing at
// MaxActions while counters keep counting.
func TestTraceActionBound(t *testing.T) {
	hp := core.Info{DBMS: core.Redis, Level: core.Medium}
	tr := NewTraceRing(TraceOptions{MaxActions: 4})
	tr.Record(traceEvent("192.0.2.7:9", hp, core.EventConnect, 0))
	for i := 0; i < 10; i++ {
		ev := traceEvent("192.0.2.7:9", hp, core.EventCommand, time.Duration(i)*time.Second)
		ev.Command = "INFO"
		tr.Record(ev)
	}
	sp := tr.Active(0)[0]
	if sp.Commands != 10 {
		t.Errorf("commands = %d, want 10", sp.Commands)
	}
	if sp.Verdict != "scouting" {
		t.Errorf("verdict %q, want scouting (INFO)", sp.Verdict)
	}
}
