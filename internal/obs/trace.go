package obs

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
)

// Attack-session tracing. The store aggregates events into per-IP
// activity records for the paper's offline analyses; an operator
// watching a live deployment wants the orthogonal cut: what is this
// session doing *right now*, and what did the last few hundred sessions
// do. TraceRing keeps a bounded map of in-flight spans — one per
// (source, honeypot) pair — and a fixed ring of completed ones, each
// recording the session's phase transitions (banner → auth → query) and
// its classify verdict. It implements core.Sink/BatchSink, so it
// registers on the event bus (or behind the relay collector) like any
// other consumer and costs one mutex acquisition per delivery batch.

// Session phases, in escalation order. A session starts in "banner"
// (connected, nothing sent), moves to "auth" on a login attempt and to
// "query" on a command; it never moves backwards.
const (
	PhaseBanner = "banner"
	PhaseAuth   = "auth"
	PhaseQuery  = "query"
)

var phaseNames = [...]string{PhaseBanner, PhaseAuth, PhaseQuery}

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

	// Verdict is the classify behaviour derived from the span's bounded
	// action sequence — scanning/scouting/exploiting, live-updated for
	// active spans.
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

// spanState is the mutable in-flight record behind a Span.
type spanState struct {
	key   spanKey
	info  core.Info
	start time.Time
	last  time.Time
	phase int // index into phaseNames
	trans []Transition

	events, logins, loginOK, commands int
	lastCommand                       string

	// act mirrors the span's logins/actions in the shape the classifier
	// consumes, with Actions bounded by TraceOptions.MaxActions.
	act evstore.Activity
}

// TraceOptions bounds the ring. The zero value gets defaults.
type TraceOptions struct {
	// MaxActive bounds in-flight spans; beyond it the least recently
	// active span is force-completed with an eviction mark. Default 4096.
	MaxActive int
	// Ring is the number of completed spans retained. Default 1024.
	Ring int
	// MaxActions bounds the per-span action sequence fed to the
	// classifier. Default 32.
	MaxActions int
	// Verdicts, when set, supplies a source's current streaming verdict
	// (typically stream.(*Analyzer).Verdict rendered as a string); it is
	// consulted only when an active span is snapshotted for /traces —
	// never on the record path — and fills Span.Live.
	Verdicts func(src netip.Addr) (string, bool)
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.MaxActive <= 0 {
		o.MaxActive = 4096
	}
	if o.Ring <= 0 {
		o.Ring = 1024
	}
	if o.MaxActions <= 0 {
		o.MaxActions = 32
	}
	return o
}

// TraceStats is the ring's own accounting.
type TraceStats struct {
	Active    int               `json:"active"`
	Completed uint64            `json:"completed"`
	Evicted   uint64            `json:"evicted"` // force-completed at MaxActive
	Verdicts  map[string]uint64 `json:"verdicts"`
}

// TraceRing traces attack sessions from the event stream. Safe for
// concurrent use; register it as a bus or collector sink and as a
// registry Source.
type TraceRing struct {
	opts TraceOptions

	mu     sync.Mutex
	active *core.LRU[spanKey, spanState]
	done   []Span // circular, next points at the oldest slot
	next   int
	filled int

	completed uint64
	evicted   uint64
	verdicts  [3]uint64 // by classify.Behavior
}

// NewTraceRing returns an empty ring.
func NewTraceRing(opts TraceOptions) *TraceRing {
	o := opts.withDefaults()
	return &TraceRing{
		opts:   o,
		active: core.NewLRU[spanKey, spanState](o.MaxActive),
		done:   make([]Span, o.Ring),
	}
}

// Record implements core.Sink.
func (t *TraceRing) Record(e core.Event) {
	t.mu.Lock()
	t.record(e)
	t.mu.Unlock()
}

// RecordBatch implements core.BatchSink: one lock per delivery batch.
func (t *TraceRing) RecordBatch(events []core.Event) error {
	t.mu.Lock()
	for _, e := range events {
		t.record(e)
	}
	t.mu.Unlock()
	return nil
}

func (t *TraceRing) record(e core.Event) {
	h := e.Honeypot
	key := spanKey{src: e.Src, dbms: h.DBMS, group: h.Group, config: h.Config, instance: h.Instance}
	s := t.active.Get(key)
	if s == nil {
		// A lone Close (span already evicted, or the process restarted
		// mid-session) carries nothing worth a new span.
		if e.Kind == core.EventClose {
			return
		}
		// At MaxActive the least recently active span goes, so a long
		// session that keeps sending outlives an idle span that lost
		// its Close.
		var evicted *spanState
		s, evicted = t.active.Add(key, spanState{
			key:   key,
			info:  e.Honeypot,
			start: e.Time,
			trans: []Transition{{Phase: PhaseBanner, At: e.Time}},
		})
		if evicted != nil {
			t.evicted++
			t.complete(evicted, evicted.last)
		}
	}
	s.last = e.Time
	s.events++
	switch e.Kind {
	case core.EventLogin:
		s.logins++
		s.act.Logins++
		if e.OK {
			s.loginOK++
			s.act.LoginOK++
		}
		s.advance(PhaseAuth, e.Time)
	case core.EventCommand:
		s.commands++
		s.act.CommandsRun++
		s.lastCommand = e.Command
		if len(s.act.Actions) < t.opts.MaxActions {
			s.act.Actions = append(s.act.Actions, evstore.Action{Name: e.Command, Raw: e.Raw})
		}
		s.advance(PhaseQuery, e.Time)
	case core.EventClose:
		t.active.Delete(key)
		t.complete(s, e.Time)
	}
}

// advance moves the span forward to the named phase; phases never
// regress (a login after commands is not a new auth phase).
func (s *spanState) advance(phase string, at time.Time) {
	for i, n := range phaseNames {
		if n == phase && i > s.phase {
			s.phase = i
			s.trans = append(s.trans, Transition{Phase: n, At: at})
		}
	}
}

// complete moves a span that has left the active table into the
// completed ring.
func (t *TraceRing) complete(s *spanState, end time.Time) {
	sp := s.snapshot()
	sp.End = end
	v := classify.Activity(s.info.DBMS, &s.act)
	if int(v) >= 0 && int(v) < len(t.verdicts) {
		t.verdicts[v]++
	}
	t.done[t.next] = sp
	t.next = (t.next + 1) % len(t.done)
	if t.filled < len(t.done) {
		t.filled++
	}
	t.completed++
}

// snapshot renders the current state as a Span (verdict included).
func (s *spanState) snapshot() Span {
	return Span{
		Src:         s.key.src.String(),
		DBMS:        s.info.DBMS,
		Honeypot:    s.info.ID(),
		Tier:        s.info.Level.String(),
		Start:       s.start,
		Phase:       phaseNames[s.phase],
		Transitions: append([]Transition(nil), s.trans...),
		Events:      s.events,
		Logins:      s.logins,
		LoginOK:     s.loginOK,
		Commands:    s.commands,
		LastCommand: s.lastCommand,
		Verdict:     classify.Activity(s.info.DBMS, &s.act).String(),
	}
}

// Active returns up to limit in-flight spans, newest first (limit <= 0
// means all). When TraceOptions.Verdicts is wired, each span also
// carries the source's live streaming verdict.
func (t *TraceRing) Active(limit int) []Span {
	t.mu.Lock()
	out := make([]Span, 0, t.active.Len())
	addrs := make([]netip.Addr, 0, t.active.Len())
	for _, s := range t.active.All() {
		out = append(out, s.snapshot())
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
	n := t.filled
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest filled slot.
		idx := (t.next - 1 - i + 2*len(t.done)) % len(t.done)
		out = append(out, t.done[idx])
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
