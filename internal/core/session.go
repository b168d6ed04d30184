package core

import (
	"net/netip"
	"strings"
	"sync/atomic"
	"time"
)

// MaxRawCapture bounds the number of raw payload bytes preserved per event.
// Attackers ship multi-kilobyte scripts; we keep enough for forensics and
// clustering without letting a hostile client balloon memory.
const MaxRawCapture = 2048

// MaxActionLen bounds a command event's action name. Handlers name some
// actions from the attacker's input — Redis an unknown command by its
// first argument, Postgres by the first word of the query — while the
// longest name a handler or the classify tables use is 27 bytes.
const MaxActionLen = 128

// Session tracks one client connection to one honeypot instance and turns
// protocol-level observations into events. Protocol handlers call the
// Connect/Login/Command/Close methods; the session stamps events with the
// clock and honeypot identity and forwards them to the sink.
type Session struct {
	Info  Info
	Src   netip.AddrPort
	clock Clock
	sink  Sink

	closed atomic.Bool
}

// NewSession creates a session for a client at src talking to instance
// info. clock and sink must be non-nil.
func NewSession(info Info, src netip.AddrPort, clock Clock, sink Sink) *Session {
	return &Session{Info: info, Src: src, clock: clock, sink: sink}
}

func (s *Session) now() time.Time { return timeOf(s.clock.Now().UnixNano()) }

func (s *Session) emit(e Event) {
	e.Src = s.Src
	e.Honeypot = s.Info
	s.sink.Record(e)
}

// Connect records the connection-open event.
func (s *Session) Connect() {
	s.emit(Event{Time: s.now(), Kind: EventConnect})
}

// Login records a credential capture. ok reports whether the honeypot
// pretended to accept the login.
func (s *Session) Login(user, pass string, ok bool) {
	s.emit(Event{Time: s.now(), Kind: EventLogin, User: user, Pass: pass, OK: ok})
}

// Command records a normalised DBMS action together with a bounded raw
// excerpt. Both are copies: a sink that keeps the event must not keep
// alive the (up to MiB-sized) request they were cut from.
func (s *Session) Command(action, raw string) {
	s.emit(Event{Time: s.now(), Kind: EventCommand, Command: clip(action, MaxActionLen), Raw: clip(raw, MaxRawCapture)})
}

// clip returns a copy of at most the first n bytes of s.
func clip(s string, n int) string { return strings.Clone(s[:min(len(s), n)]) }

// Close records the connection-close event. It is idempotent.
func (s *Session) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.emit(Event{Time: s.now(), Kind: EventClose})
}
