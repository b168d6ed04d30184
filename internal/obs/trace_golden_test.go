package obs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"decoydb/internal/core"
)

// goldenHoneypots are the honeypots of TestTracesGolden's stream: every
// tier, five DBMSes and more than one config and group.
var goldenHoneypots = []core.Info{
	{DBMS: core.Redis, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigDefault, Port: 6379},
	{DBMS: core.Postgres, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigFakeData, Instance: 1},
	{DBMS: core.MongoDB, Level: core.High, Group: core.GroupHigh, Config: core.ConfigNoLogin, Instance: 2, VM: "vm-7", Region: "eu"},
	{DBMS: core.MSSQL, Level: core.Low, Group: core.GroupMulti, Config: core.ConfigDefault, Instance: 3},
	{DBMS: core.MySQL, Level: core.Low, Group: core.GroupSingle, Config: core.ConfigDefault, Instance: 11},
}

// goldenCommands cycle through scouting, exploit-grade and
// connection-noise actions of the honeypots above.
var goldenCommands = []struct{ action, raw string }{
	{"INFO", "*1\r\n$4\r\nINFO\r\n"},
	{"SELECT", "SELECT version()"},
	{"FIND", ""},
	{"SQLBATCH-PREAUTH", "exec xp_cmdshell 'whoami'"},
	{"INSERT", "INSERT INTO README VALUES ('pay up')"},
	{"FLUSHALL", ""},
	{"NON-PG-HANDSHAKE", "\x03\x00\x00\x13Cookie: mstshash=a"},
	{"ISMASTER", ""},
}

// goldenVerdicts is a deterministic stand-in for the streaming
// analyzer's verdict feed.
func goldenVerdicts(src netip.Addr) (string, bool) {
	switch src.As4()[3] % 3 {
	case 0:
		return "exploiting", true
	case 1:
		return "scouting", true
	}
	return "", false
}

// TestTracesGolden pins the /traces JSON byte for byte on a
// deterministic synthetic stream. The stream has every event kind, a
// span that skips the auth phase, a late login, lone closes, more than
// maxActive concurrent spans and more than ringSize closes, with the
// live-verdict feed wired. After each of its three stages the golden
// file holds one limited page verbatim and the SHA-256 of the whole
// response (limit=0). testdata/traces.golden was rendered by the ring
// that kept an action list per span and formatted each span as it
// closed, so it shows the fold-and-render-on-read ring serves the same
// bytes.
func TestTracesGolden(t *testing.T) {
	tr := NewTraceRing(TraceOptions{Verdicts: goldenVerdicts})
	h := NewServer(ServerOptions{Traces: tr}).Handler()
	var out bytes.Buffer
	page := func(stage string, limit int) {
		for _, l := range []int{limit, 0} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/traces?limit=%d", l), nil))
			if rec.Code != 200 {
				t.Fatalf("%s: /traces?limit=%d: %d", stage, l, rec.Code)
			}
			if l != 0 {
				fmt.Fprintf(&out, "== %s /traces?limit=%d\n%s", stage, l, rec.Body.Bytes())
				continue
			}
			fmt.Fprintf(&out, "== %s /traces?limit=0 sha256 %x\n", stage, sha256.Sum256(rec.Body.Bytes()))
		}
	}
	at := traceStart
	ev := func(src netip.AddrPort, hp core.Info, kind core.EventKind) core.Event {
		at = at.Add(time.Second)
		return core.Event{Time: at, Src: src, Honeypot: hp, Kind: kind}
	}
	cmd := func(src netip.AddrPort, hp core.Info, action, raw string) core.Event {
		e := ev(src, hp, core.EventCommand)
		e.Command, e.Raw = action, raw
		return e
	}
	login := func(src netip.AddrPort, hp core.Info, ok bool) core.Event {
		e := ev(src, hp, core.EventLogin)
		e.User, e.Pass, e.OK = "sa", "123", ok
		return e
	}
	src := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), uint16(40000+i%7))
	}
	redis, pg, mongo, mssql, mysql := goldenHoneypots[0], goldenHoneypots[1], goldenHoneypots[2], goldenHoneypots[3], goldenHoneypots[4]

	// Stage 1: a handful of sessions, one per shape.
	stage1 := []core.Event{
		// banner → auth → query, escalating to exploiting.
		ev(src(1), redis, core.EventConnect),
		login(src(1), redis, false),
		login(src(1), redis, true),
		cmd(src(1), redis, "INFO", "*1\r\n$4\r\nINFO\r\n"),
		cmd(src(1), redis, "CONFIG SET dir", "CONFIG SET dir /var/spool/cron"),
		ev(src(1), redis, core.EventClose),
		// A skipped auth phase.
		ev(src(2), pg, core.EventConnect),
		cmd(src(2), pg, "SELECT", "SELECT 1"),
		ev(src(2), pg, core.EventClose),
		// A late login after a command.
		ev(src(3), mongo, core.EventConnect),
		cmd(src(3), mongo, "FIND", ""),
		login(src(3), mongo, true),
		ev(src(3), mongo, core.EventClose),
		// A bare scan.
		ev(src(4), mssql, core.EventConnect),
		ev(src(4), mssql, core.EventClose),
		// A span opened by its login.
		login(src(5), mysql, false),
		ev(src(5), mysql, core.EventClose),
		// Connection noise carrying a service-scan marker.
		ev(src(6), pg, core.EventConnect),
		cmd(src(6), pg, "NON-PG-HANDSHAKE", "\x03\x00\x00\x13Cookie: mstshash=a"),
		ev(src(6), pg, core.EventClose),
		// Lone closes: one never opened, one closed twice.
		ev(src(7), redis, core.EventClose),
		ev(src(1), redis, core.EventClose),
		// The same source and port back on the same honeypot: a new span.
		ev(src(4), mssql, core.EventConnect),
		login(src(4), mssql, false),
		// Still active, with and without a live verdict.
		ev(src(8), redis, core.EventConnect),
		cmd(src(8), redis, "FLUSHALL", ""),
		ev(src(9), pg, core.EventConnect),
		login(src(9), pg, true),
		cmd(src(9), pg, "COPY FROM PROGRAM", "COPY t FROM PROGRAM 'id'"),
		ev(src(10), mongo, core.EventConnect),
		cmd(src(10), mongo, "ISMASTER", ""),
		// One source on two honeypots at once.
		ev(src(11), mysql, core.EventConnect),
		ev(src(11), mssql, core.EventConnect),
		cmd(src(11), mysql, "DROP DATABASE", "DROP DATABASE shop"),
	}
	if err := tr.RecordBatch(stage1); err != nil {
		t.Fatal(err)
	}
	page("stage 1", 8)

	// Stage 2: 4,200 more spans open and none closes, so the least
	// recently active go to the completed ring as evictions. Every
	// third span logs in, every third runs commands.
	const opened = 4200
	for i := 0; i < opened; i++ {
		s, hp := src(100+i), goldenHoneypots[i%len(goldenHoneypots)]
		batch := []core.Event{ev(s, hp, core.EventConnect)}
		switch i % 3 {
		case 1:
			batch = append(batch, login(s, hp, i%2 == 0))
		case 2:
			for j := 0; j < 1+i%4; j++ {
				c := goldenCommands[(i+j)%len(goldenCommands)]
				batch = append(batch, cmd(s, hp, c.action, c.raw))
			}
		}
		// Delivery batches mix single events with longer runs.
		if i%2 == 0 {
			for _, e := range batch {
				tr.Record(e)
			}
		} else if err := tr.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	page("stage 2", 4)

	// Stage 3: 1,500 of those spans close, oldest first; the evicted
	// ones among them are lone closes. Some touch their span once more
	// before closing.
	var closes []core.Event
	for i := 0; i < 1500; i++ {
		s, hp := src(100+i), goldenHoneypots[i%len(goldenHoneypots)]
		if i%5 == 0 {
			closes = append(closes, login(s, hp, true))
		}
		closes = append(closes, ev(s, hp, core.EventClose))
	}
	if err := tr.RecordBatch(closes); err != nil {
		t.Fatal(err)
	}
	page("stage 3", 4)

	const golden = "testdata/traces.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("/traces differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/traces has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
