package postgres

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"testing/quick"

	"decoydb/internal/core"
	"decoydb/internal/hptest"
)

func TestStartupRoundTrip(t *testing.T) {
	b := EncodeStartup(map[string]string{"user": "postgres", "database": "prod", "application_name": "psql"})
	st, err := ReadStartup(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != ProtocolVersion {
		t.Fatalf("protocol = %d", st.Protocol)
	}
	if st.Params["user"] != "postgres" || st.Params["database"] != "prod" {
		t.Fatalf("params = %v", st.Params)
	}
}

func TestStartupBounds(t *testing.T) {
	// Declared length below the minimum.
	if _, err := ReadStartup(bytes.NewReader([]byte{0, 0, 0, 5, 0})); err == nil {
		t.Fatal("undersized startup accepted")
	}
	// Declared length above the cap.
	if _, err := ReadStartup(bytes.NewReader([]byte{0x7f, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized startup accepted")
	}
}

// TestStartupBareHeaderBounded: a startup length of MaxMessage followed
// by EOF costs the reader its read-ahead, not the 1 MiB it declares.
func TestStartupBareHeaderBounded(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxMessage)
	hptest.CheckBareHeader(t, func() error {
		_, err := ReadStartup(bytes.NewReader(hdr))
		return err
	})
}

// TestMsgBareHeaderBounded: a typed message header declaring MaxMessage
// followed by EOF costs the reader its read-ahead, not the 1 MiB it
// declares.
func TestMsgBareHeaderBounded(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32([]byte{'Q'}, MaxMessage)
	hptest.CheckBareHeader(t, func() error {
		_, err := ReadMsg(bytes.NewReader(hdr))
		return err
	})
}

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, 'Q', EncodeQuery("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != 'Q' || string(m.Payload) != "SELECT 1\x00" {
		t.Fatalf("msg = %c %q", m.Type, m.Payload)
	}
}

func TestErrorResponseFields(t *testing.T) {
	m := ErrorResponse("FATAL", "28P01", "password authentication failed for user \"x\"")
	fields := ParseErrorResponse(m.Payload)
	if fields['S'] != "FATAL" || fields['C'] != "28P01" {
		t.Fatalf("fields = %v", fields)
	}
}

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT version()", "SELECT VERSION"},
		{"select * from users;", "SELECT"},
		{"DROP TABLE IF EXISTS abc123;", "DROP TABLE"},
		{"CREATE TABLE abc123(cmd_output text);", "CREATE TABLE"},
		{"COPY abc123 FROM PROGRAM 'echo x | base64 -d | bash';", "COPY FROM PROGRAM"},
		{"copy t from stdin", "COPY"},
		{"ALTER USER pgg_superadmins WITH PASSWORD 'x'", "ALTER USER"},
		{"ALTER ROLE postgres NOSUPERUSER", "ALTER ROLE"},
		{"SET client_encoding TO 'UTF8'", "SET"},
		{"SHOW server_version", "SHOW"},
		{"BEGIN", "TXN"},
		{"", "EMPTY"},
		{"GARBAGE input", "GARBAGE"},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.sql); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.sql, got, c.want)
		}
	}
}

func pgInfo(cfg string) core.Info {
	return core.Info{DBMS: core.Postgres, Level: core.Medium, Port: 5432, Config: cfg, Group: core.GroupMedium}
}

// pgClient drives the frontend side of the protocol.
type pgClient struct {
	t  *testing.T
	br *bufio.Reader
	c  net.Conn
}

func newPGClient(t *testing.T, c net.Conn) *pgClient {
	return &pgClient{t: t, br: bufio.NewReader(c), c: c}
}

func (p *pgClient) startup(user string) {
	p.t.Helper()
	if _, err := p.c.Write(EncodeStartup(map[string]string{"user": user, "database": user})); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pgClient) read() Msg {
	p.t.Helper()
	m, err := ReadMsg(p.br)
	if err != nil {
		p.t.Fatalf("read msg: %v", err)
	}
	return m
}

func (p *pgClient) send(typ byte, payload []byte) {
	p.t.Helper()
	if err := WriteMsg(p.c, typ, payload); err != nil {
		p.t.Fatal(err)
	}
}

// readUntil reads messages until one of type want arrives (collecting
// types seen), failing after 20 messages.
func (p *pgClient) readUntil(want byte) Msg {
	p.t.Helper()
	for i := 0; i < 20; i++ {
		m := p.read()
		if m.Type == want {
			return m
		}
	}
	p.t.Fatalf("no %c message in 20 reads", want)
	return Msg{}
}

func TestLowModeDeniesAndCaptures(t *testing.T) {
	hp := New(ModeLow)
	events := hptest.Run(t, hp.Handler(), pgInfo(core.ConfigDefault), func(t *testing.T, conn net.Conn) {
		cl := newPGClient(t, conn)
		cl.startup("postgres")
		if m := cl.read(); m.Type != 'R' {
			t.Fatalf("expected auth request, got %c", m.Type)
		}
		cl.send('p', EncodePassword("postgres123"))
		m := cl.read()
		if m.Type != 'E' {
			t.Fatalf("expected error, got %c", m.Type)
		}
		f := ParseErrorResponse(m.Payload)
		if f['C'] != "28P01" {
			t.Fatalf("sqlstate = %q", f['C'])
		}
	})
	logins := hptest.Logins(events)
	if len(logins) != 1 || logins[0] != [2]string{"postgres", "postgres123"} {
		t.Fatalf("logins = %v", logins)
	}
	for _, e := range events {
		if e.Kind == core.EventLogin && e.OK {
			t.Fatal("low mode accepted a login")
		}
	}
}

func TestOpenModeQueryLoop(t *testing.T) {
	hp := New(ModeOpen)
	events := hptest.Run(t, hp.Handler(), pgInfo(core.ConfigDefault), func(t *testing.T, conn net.Conn) {
		cl := newPGClient(t, conn)
		cl.startup("admin")
		cl.read() // auth request
		cl.send('p', EncodePassword("anything"))
		cl.readUntil('Z')
		// The Kinsing sequence from the paper's Listing 4.
		for _, q := range []string{
			"DROP TABLE IF EXISTS abc123;",
			"CREATE TABLE abc123(cmd_output text);",
			"COPY abc123 FROM PROGRAM 'echo aGk= | base64 -d | bash';",
			"SELECT * FROM abc123;",
			"DROP TABLE IF EXISTS abc123;",
		} {
			cl.send('Q', EncodeQuery(q))
			cl.readUntil('Z')
		}
		cl.send('X', nil)
	})
	cmds := hptest.Commands(events)
	want := []string{"DROP TABLE", "CREATE TABLE", "COPY FROM PROGRAM", "SELECT", "DROP TABLE"}
	if len(cmds) != len(want) {
		t.Fatalf("commands = %v, want %v", cmds, want)
	}
	for i := range want {
		if cmds[i] != want[i] {
			t.Fatalf("commands[%d] = %q, want %q", i, cmds[i], want[i])
		}
	}
	logins := hptest.Logins(events)
	if len(logins) != 1 {
		t.Fatalf("logins = %v", logins)
	}
	for _, e := range events {
		if e.Kind == core.EventLogin && !e.OK {
			t.Fatal("open mode rejected a login")
		}
	}
}

func TestNoLoginModeRejects(t *testing.T) {
	hp := New(ModeNoLogin)
	hptest.Run(t, hp.Handler(), pgInfo(core.ConfigNoLogin), func(t *testing.T, conn net.Conn) {
		cl := newPGClient(t, conn)
		cl.startup("replicator")
		cl.read()
		cl.send('p', EncodePassword("secret"))
		if m := cl.read(); m.Type != 'E' {
			t.Fatalf("expected error, got %c", m.Type)
		}
	})
}

func TestSSLRequestHandled(t *testing.T) {
	hp := New(ModeLow)
	hptest.Run(t, hp.Handler(), pgInfo(core.ConfigDefault), func(t *testing.T, conn net.Conn) {
		// SSLRequest: length 8, code 80877103.
		ssl := []byte{0, 0, 0, 8, 0x04, 0xd2, 0x16, 0x2f}
		if _, err := conn.Write(ssl); err != nil {
			t.Fatal(err)
		}
		var one [1]byte
		if _, err := conn.Read(one[:]); err != nil || one[0] != 'N' {
			t.Fatalf("SSL response = %c, %v", one[0], err)
		}
		cl := newPGClient(t, conn)
		cl.startup("postgres")
		if m := cl.read(); m.Type != 'R' {
			t.Fatalf("expected auth request after SSL refusal, got %c", m.Type)
		}
	})
}

func TestRDPCookieOnPostgresPort(t *testing.T) {
	// Paper Listing 10: RDP negotiation bytes hit 5432. The honeypot must
	// log the anomaly and survive.
	hp := New(ModeOpen)
	events := hptest.Run(t, hp.Handler(), pgInfo(core.ConfigDefault), func(t *testing.T, conn net.Conn) {
		rdp := []byte{0x03, 0x00, 0x00, 0x2b, 0x26, 0xe0, 0x00, 0x00, 0x00, 0x00, 0x00}
		rdp = append(rdp, []byte("Cookie: mstshash=Administr\r\n")...)
		conn.Write(rdp)
	})
	cmds := hptest.Commands(events)
	if len(cmds) != 1 {
		t.Fatalf("commands = %v", cmds)
	}
	if cmds[0] != "PROTOCOL-ERROR" && cmds[0] != "NON-PG-HANDSHAKE" {
		t.Fatalf("command = %q", cmds[0])
	}
}

// Property: typed messages round-trip for any payload under the cap.
func TestMsgRoundTripQuick(t *testing.T) {
	f := func(typ byte, payload []byte) bool {
		if typ == 0 || len(payload) > 4096 {
			return true
		}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, typ, payload); err != nil {
			return false
		}
		m, err := ReadMsg(&buf)
		return err == nil && m.Type == typ && bytes.Equal(m.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: startup packets round-trip their user/database parameters for
// NUL-free values.
func TestStartupRoundTripQuick(t *testing.T) {
	clean := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r != 0 {
				out = append(out, r)
			}
		}
		return string(out)
	}
	f := func(user, db string) bool {
		user, db = clean(user), clean(db)
		if user == "" {
			user = "u"
		}
		st, err := ReadStartup(bytes.NewReader(EncodeStartup(map[string]string{"user": user, "database": db})))
		if err != nil {
			return false
		}
		return st.Params["user"] == user && st.Params["database"] == db
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
