package core

import (
	"net/netip"
	"time"
)

// EventKind enumerates what a client did.
type EventKind int

// Event kinds. Connect and Close bracket every session; Login carries
// captured credentials; Command carries a normalised DBMS action.
const (
	EventConnect EventKind = iota
	EventLogin
	EventCommand
	EventClose
)

// String returns the log name of the kind.
func (k EventKind) String() string {
	switch k {
	case EventConnect:
		return "connect"
	case EventLogin:
		return "login"
	case EventCommand:
		return "command"
	case EventClose:
		return "close"
	}
	return "unknown"
}

// Event is the unit record emitted by honeypots. Command holds a
// normalised action (e.g. "CONFIG SET dir", "COPY FROM PROGRAM") used by
// the classifier and the TF clustering; Raw preserves (a bounded excerpt
// of) the original payload for forensics.
type Event struct {
	Time     time.Time
	Src      netip.AddrPort
	Honeypot Info
	Kind     EventKind
	User     string
	Pass     string
	OK       bool // login accepted (e.g. open PostgreSQL config)
	Command  string
	Raw      string
}
