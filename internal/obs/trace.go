package obs

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/core"
)

// Attack-session tracing. The store aggregates events into per-IP
// activity records for the paper's offline analyses; an operator
// watching a live deployment wants the orthogonal cut: what is this
// session doing *right now*, and what did the last few hundred sessions
// do. TraceRing keeps a bounded table of in-flight spans — one per
// (source, honeypot) pair — and a fixed ring of completed ones. A span
// is a few counters, its phase entry times (banner → auth → query) and
// its classify verdict, all folded as events arrive, so its size does
// not depend on what the attacker sends; it becomes a Span only when
// read. TraceRing implements core.Sink/BatchSink, so it registers on the
// event bus (or behind the relay collector) like any other consumer and
// costs one mutex acquisition per delivery batch.

// Session phases, in escalation order. A session starts in "banner"
// (connected, nothing sent), moves to "auth" on a login attempt and to
// "query" on a command; it never moves backwards.
const (
	PhaseBanner = "banner"
	PhaseAuth   = "auth"
	PhaseQuery  = "query"
)

var phaseNames = [...]string{PhaseBanner, PhaseAuth, PhaseQuery}

// Indexes into phaseNames.
const (
	bannerPhase = iota
	authPhase
	queryPhase
)

// The ring's bounds. Beyond maxActive in-flight spans the least
// recently active one is force-completed with an eviction mark; the
// completed ring keeps the newest ringSize spans.
const (
	maxActive = 4096
	ringSize  = 1024
)

// Transition records when a span entered a phase.
type Transition struct {
	Phase string    `json:"phase"`
	At    time.Time `json:"at"`
}

// Span is one traced attack session: a source's interaction with one
// honeypot from connect to close (End is zero while still active).
type Span struct {
	Src      string `json:"src"`
	DBMS     string `json:"dbms"`
	Honeypot string `json:"honeypot"`
	Tier     string `json:"tier"`

	Start time.Time `json:"start"`
	End   time.Time `json:"end,omitzero"`

	Phase       string       `json:"phase"`
	Transitions []Transition `json:"transitions"`

	Events      int    `json:"events"`
	Logins      int    `json:"logins"`
	LoginOK     int    `json:"login_ok"`
	Commands    int    `json:"commands"`
	LastCommand string `json:"last_command,omitempty"`

	// Verdict is the classify behaviour of the span's events —
	// scanning/scouting/exploiting, live-updated for active spans. It is
	// classify.Activity folded one event at a time: a login makes the
	// span scouting, a command raises it to its classify.Step.
	Verdict string `json:"verdict"`
	// Live is the source's current behaviour as the streaming analyzer
	// sees it — across all of the source's sessions, not just this span.
	// Only set on active spans, and only when the owning process wired
	// TraceOptions.Verdicts.
	Live string `json:"live_verdict,omitempty"`
}

// spanKey identifies an in-flight session: its source and the fields of
// the honeypot's core.Info that Info.ID formats, compared as they are so
// that recording an event formats no ID.
type spanKey struct {
	src                 netip.AddrPort
	dbms, group, config string
	instance            int
}

// spanState is a span as the ring keeps it, in flight and completed.
type spanState struct {
	key   spanKey
	level core.Level
	// phases has bit i set once the span entered phaseNames[i], at
	// entered[i]; the highest set bit is the current phase. A span may
	// skip auth, so the bits are not always contiguous.
	phases  uint8
	entered [len(phaseNames)]time.Time
	last    time.Time // the latest event; a completed span's End

	events, logins, loginOK, commands int
	lastCommand                       string
	verdict                           classify.Behavior
}

// TraceOptions wires the ring into its process.
type TraceOptions struct {
	// Verdicts, when set, supplies a source's current streaming verdict
	// (typically stream.(*Analyzer).Verdict rendered as a string); it is
	// consulted only when an active span is rendered for /traces —
	// never on the record path — and fills Span.Live.
	Verdicts func(src netip.Addr) (string, bool)
}

// TraceStats is the ring's own accounting.
type TraceStats struct {
	Active    int               `json:"active"`
	Completed uint64            `json:"completed"`
	Evicted   uint64            `json:"evicted"` // force-completed at the active cap
	Verdicts  map[string]uint64 `json:"verdicts"`
}

// TraceRing traces attack sessions from the event stream. Safe for
// concurrent use; register it as a bus or collector sink and as a
// registry Source.
type TraceRing struct {
	opts TraceOptions

	mu     sync.Mutex
	active *core.LRU[spanKey, spanState]
	// done holds the newest completed spans; completion n went to slot
	// n % ringSize.
	done      [ringSize]spanState
	completed uint64
	evicted   uint64
	verdicts  [3]uint64 // by classify.Behavior
}

// NewTraceRing returns an empty ring.
func NewTraceRing(opts TraceOptions) *TraceRing {
	return &TraceRing{opts: opts, active: core.NewLRU[spanKey, spanState](maxActive)}
}

// Record implements core.Sink.
func (t *TraceRing) Record(e core.Event) {
	t.mu.Lock()
	t.record(&e)
	t.mu.Unlock()
}

// RecordBatch implements core.BatchSink: one lock per delivery batch.
func (t *TraceRing) RecordBatch(events []core.Event) error {
	t.mu.Lock()
	for i := range events {
		t.record(&events[i])
	}
	t.mu.Unlock()
	return nil
}

func (t *TraceRing) record(e *core.Event) {
	h := &e.Honeypot
	key := spanKey{src: e.Src, dbms: h.DBMS, group: h.Group, config: h.Config, instance: h.Instance}
	s := t.active.Get(key)
	if s == nil {
		// A lone Close (span already evicted, or the process restarted
		// mid-session) carries nothing worth a new span.
		if e.Kind == core.EventClose {
			return
		}
		// At maxActive the least recently active span goes, so a long
		// session that keeps sending outlives an idle span that lost
		// its Close.
		var evicted *spanState
		s, evicted = t.active.Add(key, spanState{
			key: key, level: h.Level,
			phases: 1 << bannerPhase, entered: [len(phaseNames)]time.Time{bannerPhase: e.Time},
		})
		if evicted != nil {
			t.evicted++
			t.complete(evicted)
		}
	}
	s.last = e.Time
	s.events++
	switch e.Kind {
	case core.EventLogin:
		s.logins++
		if e.OK {
			s.loginOK++
		}
		s.advance(authPhase, e.Time)
		s.verdict = max(s.verdict, classify.Scouting)
	case core.EventCommand:
		s.commands++
		s.lastCommand = e.Command
		s.advance(queryPhase, e.Time)
		if s.verdict < classify.Exploiting {
			s.verdict = max(s.verdict, classify.Step(h.DBMS, e.Command, e.Raw))
		}
	case core.EventClose:
		t.complete(s)
		t.active.Delete(key)
	}
}

// advance moves the span forward to phaseNames[phase]; phases never
// regress (a login after commands is not a new auth phase).
func (s *spanState) advance(phase int, at time.Time) {
	if s.phases>>phase == 0 {
		s.phases |= 1 << phase
		s.entered[phase] = at
	}
}

// complete copies a span that is leaving the active table into the
// completed ring.
func (t *TraceRing) complete(s *spanState) {
	t.done[t.completed%ringSize] = *s
	t.completed++
	t.verdicts[s.verdict]++
}

// render builds the Span a reader sees. End stays zero: only completed
// spans have one.
func (s *spanState) render() Span {
	k := &s.key
	sp := Span{
		Src:         k.src.String(),
		DBMS:        k.dbms,
		Honeypot:    core.Info{DBMS: k.dbms, Group: k.group, Config: k.config, Instance: k.instance}.ID(),
		Tier:        s.level.String(),
		Start:       s.entered[bannerPhase],
		Transitions: make([]Transition, 0, len(phaseNames)),
		Events:      s.events,
		Logins:      s.logins,
		LoginOK:     s.loginOK,
		Commands:    s.commands,
		LastCommand: s.lastCommand,
		Verdict:     s.verdict.String(),
	}
	for i, name := range phaseNames {
		if s.phases&(1<<i) != 0 {
			sp.Phase = name
			sp.Transitions = append(sp.Transitions, Transition{Phase: name, At: s.entered[i]})
		}
	}
	return sp
}

// Active returns up to limit in-flight spans, newest first (limit <= 0
// means all). When TraceOptions.Verdicts is wired, each span also
// carries the source's live streaming verdict.
func (t *TraceRing) Active(limit int) []Span {
	t.mu.Lock()
	out := make([]Span, 0, t.active.Len())
	addrs := make([]netip.Addr, 0, t.active.Len())
	for _, s := range t.active.All() {
		out = append(out, s.render())
		addrs = append(addrs, s.key.src.Addr())
	}
	t.mu.Unlock()
	// The verdict feed locks the analyzer; consult it outside our own
	// mutex so the two sinks never hold both locks at once.
	if t.opts.Verdicts != nil {
		for i := range out {
			if v, ok := t.opts.Verdicts(addrs[i]); ok {
				out[i].Live = v
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].Src < out[j].Src
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Recent returns up to limit completed spans, newest first (limit <= 0
// means all retained).
func (t *TraceRing) Recent(limit int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min(t.completed, ringSize))
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Span, n)
	for i := range out {
		s := &t.done[(t.completed-1-uint64(i))%ringSize]
		out[i] = s.render()
		out[i].End = s.last
	}
	return out
}

// Stats snapshots the ring's accounting.
func (t *TraceRing) Stats() TraceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TraceStats{
		Active:    t.active.Len(),
		Completed: t.completed,
		Evicted:   t.evicted,
		Verdicts:  make(map[string]uint64, len(t.verdicts)),
	}
	for i, n := range t.verdicts {
		st.Verdicts[classify.Behavior(i).String()] = n
	}
	return st
}

// Name implements Source.
func (t *TraceRing) Name() string { return "traces" }

// Status implements Source.
func (t *TraceRing) Status() any { return t.Stats() }

// Collect implements Source.
func (t *TraceRing) Collect(e *Emitter) {
	st := t.Stats()
	e.Gauge("decoydb_traces_active", "In-flight attack-session spans.", float64(st.Active))
	e.Counter("decoydb_traces_completed_total", "Completed spans.", float64(st.Completed))
	e.Counter("decoydb_traces_evicted_total", "Spans force-completed at the active cap.", float64(st.Evicted))
	for _, name := range []string{"scanning", "scouting", "exploiting"} {
		e.Counter("decoydb_traces_verdict_total", "Completed spans by classify verdict.", float64(st.Verdicts[name]), L("verdict", name))
	}
}
