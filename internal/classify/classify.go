// Package classify implements the paper's behavioural classification of
// source IPs (Section 4.3): every source that connects is a *scanner*;
// sources that attempt logins or issue information-gathering commands are
// additionally *scouts*; sources that try to alter the DBMS, its data, or
// the underlying system are *exploiters*. The paper applies regex filters
// over captured commands; here the honeypots already emit normalised
// action tokens, so the rules match on those (with raw-payload checks
// where the action alone is ambiguous).
package classify

import (
	"sort"
	"strings"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
)

// Behavior is the classification outcome.
type Behavior int

// Behaviours, ordered by intrusiveness. A source classified Scouting is
// also a scanner; an exploiter may be all three (paper Section 4.3).
const (
	Scanning Behavior = iota
	Scouting
	Exploiting
)

// String returns the paper's category name.
func (b Behavior) String() string {
	switch b {
	case Scanning:
		return "scanning"
	case Scouting:
		return "scouting"
	case Exploiting:
		return "exploiting"
	}
	return "unknown"
}

// ParseBehavior returns the behaviour String names name, and false for
// any other name.
func ParseBehavior(name string) (Behavior, bool) {
	for b := range Exploiting + 1 {
		if b.String() == name {
			return b, true
		}
	}
	return Scanning, false
}

// exploitActions lists, per DBMS, the normalised actions that constitute
// manipulation of the DBMS, its data, or the host.
var exploitActions = map[string]map[string]bool{
	core.Redis: {
		"SLAVEOF":               true, // rogue-master module loading
		"REPLICAOF":             true,
		"MODULE LOAD":           true,
		"SYSTEM.EXEC":           true,
		"EVAL":                  true, // CVE-2022-0543 Lua escape
		"CONFIG SET dir":        true, // cron/ssh-key file drops
		"CONFIG SET dbfilename": true,
		"FLUSHDB":               true,
		"FLUSHALL":              true,
		"SET":                   true, // payload staging for the file-drop chain
	},
	core.Postgres: {
		"COPY FROM PROGRAM": true, // code execution primitive (Kinsing)
		"DROP TABLE":        true,
		"CREATE TABLE":      true,
		"ALTER USER":        true, // privilege manipulation (Listing 13)
		"ALTER ROLE":        true,
		"CREATE USER":       true,
		"INSERT":            true,
		"UPDATE":            true,
		"DELETE":            true,
	},
	core.Elastic: {
		"SEARCH SCRIPT-EXEC": true, // dynamic-scripting RCE (Lucifer)
	},
	core.MongoDB: {
		"INSERT":       true, // ransom-note drops
		"DELETE":       true,
		"DROP":         true,
		"DROPDATABASE": true,
	},
	core.MSSQL: {
		"SQLBATCH-PREAUTH": true,
	},
	core.MySQL: {
		"INSERT":          true, // ransom-note drops via the medium honeypot
		"UPDATE":          true,
		"DELETE":          true,
		"DROP TABLE":      true,
		"DROP DATABASE":   true,
		"CREATE TABLE":    true,
		"CREATE DATABASE": true,
		"ALTER TABLE":     true,
		"ALTER USER":      true,
		"CREATE USER":     true,
	},
	core.CouchDB: {
		"CVE-2017-12635 ADMIN-INJECT": true, // _users role injection
		"DELETE /{db}":                true, // ransom wipes
		"PUT /{db}":                   true,
		"PUT /{db}/{doc}":             true, // ransom-note documents
		"POST /{db}/{doc}":            true,
		"PUT /_config":                true, // admin-party config writes
		"DELETE /_config":             true,
	},
}

// scoutActions lists informational actions that go beyond mere
// connection but do not alter anything.
var scoutActions = map[string]map[string]bool{
	core.Redis: {
		"INFO": true, "KEYS": true, "TYPE": true, "GET": true, "SCAN": true,
		"DBSIZE": true, "CLIENT LIST": true, "CONFIG GET": true, "PING": true,
		"HGETALL": true, "EXISTS": true, "COMMAND": true, "AUTH": true,
	},
	core.Postgres: {
		"SELECT": true, "SELECT VERSION": true, "SHOW": true, "SET": true, "TXN": true,
	},
	core.Elastic: {
		"SEARCH SCRIPT-FIELD":  true,
		"CVE-2023-41892 PROBE": true, // web-CVE scouting, not DBMS exploitation (paper Table 9)
		"CVE-2021-22005 PROBE": true,
	},
	core.MongoDB: {
		"BUILDINFO": true, "LISTDATABASES": true, "LISTCOLLECTIONS": true,
		"FIND": true, "COUNT": true, "AGGREGATE": true, "GETLOG": true,
		"SERVERSTATUS": true, "GETMORE": true, "AUTH": true,
	},
}

// connectionNoise lists actions that amount to protocol housekeeping: a
// source whose only actions are these is still just scanning. MongoDB
// drivers send isMaster on every connection, and malformed-protocol junk
// (RDP cookies, JDWP handshakes, TLS hellos) is port-scan fallout.
var connectionNoise = map[string]bool{
	"ISMASTER":         true,
	"WHATSMYURI":       true,
	"ENDSESSIONS":      true,
	"CONNECTIONSTATUS": true,
	"GETPARAMETER":     true,
	"QUIT":             true,
	"PROTOCOL-ERROR":   true,
	"NON-PG-HANDSHAKE": true,
	"JDWP-HANDSHAKE":   true,
	"UNEXPECTED-MSG":   true,
	"UNEXPECTED-TDS":   true,
	"MALFORMED-LOGIN":  true,
	"MALFORMED-LOGIN7": true,
	"EMPTY":            true,
}

// serviceScanMarkers match raw payloads of scans for services unrelated
// to the DBMS (paper Table 9: RDP, JDWP). These classify as scouting —
// the source sent a deliberate, crafted probe.
var serviceScanMarkers = []string{
	"mstshash=",      // RDP negotiation cookie
	"JDWP-Handshake", // Java Debug Wire Protocol
}

// Step classifies one normalised action on one DBMS: exploit-grade if
// the action manipulates the DBMS/data/host, scanning if it is pure
// protocol housekeeping (unless the raw payload is a deliberate probe
// for an unrelated service), scouting otherwise.
func Step(dbms, action, raw string) Behavior {
	if exploitActions[dbms][action] {
		return Exploiting
	}
	if scoutActions[dbms][action] {
		return Scouting
	}
	if connectionNoise[action] {
		for _, m := range serviceScanMarkers {
			if strings.Contains(raw, m) {
				return Scouting
			}
		}
		return Scanning
	}
	// Unknown deliberate command: the source interacted.
	return Scouting
}

// Fold raises verdict v by one event of kind on dbms: a login raises it
// to Scouting, and a command to Step(dbms, action, raw). It is the one
// verdict rule: Activity folds it over a stored activity, and the
// streaming analyzer (internal/stream) and the trace ring (internal/obs)
// over events as they arrive, so live and post-hoc verdicts cannot drift
// apart.
func Fold(v Behavior, kind core.EventKind, dbms, action, raw string) Behavior {
	switch {
	case v == Exploiting:
		return v
	case kind == core.EventLogin:
		return max(v, Scouting)
	case kind == core.EventCommand:
		return max(v, Step(dbms, action, raw))
	}
	return v
}

// ExploitActions returns the exploit-grade action names for one DBMS in
// sorted order — the table-form contract the emulation drift tests in
// internal/simnet assert against: every entry must be producible by the
// DBMS's protocol package, or the table has drifted from the emulation.
func ExploitActions(dbms string) []string {
	out := make([]string, 0, len(exploitActions[dbms]))
	for name := range exploitActions[dbms] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Activity classifies one (source, honeypot) activity record: Fold over
// a login, if it had any, and over its commands.
func Activity(dbms string, act *evstore.Activity) Behavior {
	if act == nil {
		return Scanning
	}
	best := Scanning
	if act.Logins > 0 {
		best = Fold(best, core.EventLogin, dbms, "", "")
	}
	for _, a := range act.Actions {
		best = Fold(best, core.EventCommand, dbms, a.Name, a.Raw)
	}
	return best
}

// IP classifies a source across the honeypots selected by q (its DBMS
// and Tier fields, see evstore.Query.MatchKey; the zero Query selects
// all): the most intrusive behaviour observed anywhere wins.
func IP(rec *evstore.IPRecord, q evstore.Query) Behavior {
	best := Scanning
	for k, act := range rec.Per {
		if !q.MatchKey(k) {
			continue
		}
		if b := Activity(k.DBMS, act); b > best {
			best = b
			if best == Exploiting {
				break
			}
		}
	}
	return best
}

// MediumHigh selects medium/high-interaction activity.
var MediumHigh = evstore.Query{Tier: evstore.MediumHighTier}

// ForDBMS returns a query selecting medium/high activity on one DBMS.
func ForDBMS(dbms string) evstore.Query {
	return evstore.Query{DBMS: dbms, Tier: evstore.MediumHighTier}
}

// Counts tallies behaviours for a set of records under a query.
type Counts struct {
	IPs        int
	Scanning   int
	Scouting   int
	Exploiting int
}

// Count classifies every record that has activity matching q.
func Count(recs []*evstore.IPRecord, q evstore.Query) Counts {
	var c Counts
	for _, r := range recs {
		touched := false
		for k := range r.Per {
			if q.MatchKey(k) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		c.IPs++
		switch IP(r, q) {
		case Scanning:
			c.Scanning++
		case Scouting:
			c.Scouting++
		case Exploiting:
			c.Exploiting++
		}
	}
	return c
}
