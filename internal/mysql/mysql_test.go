package mysql

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"testing/quick"

	"decoydb/internal/core"
	"decoydb/internal/hptest"
)

func TestPacketRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Packet{Seq: 3, Payload: []byte{1, 2, 3, 4, 5}}
	if err := WritePacket(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestPacketOversized(t *testing.T) {
	// Declared 16MB-1 payload, no body: must be rejected by the limit.
	hdr := []byte{0xff, 0xff, 0xff, 0x00}
	if _, err := ReadPacket(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized packet accepted")
	}
}

// TestPacketBareHeaderBounded: a header that declares MaxPacket and is
// then followed by EOF costs the reader its read-ahead, not the 1 MiB
// the header declares.
func TestPacketBareHeaderBounded(t *testing.T) {
	n := MaxPacket
	hdr := []byte{byte(n), byte(n >> 8), byte(n >> 16), 0}
	hptest.CheckBareHeader(t, func() error {
		_, err := ReadPacket(bytes.NewReader(hdr))
		return err
	})
}

func TestHandshakeRoundTrip(t *testing.T) {
	want := Handshake{Version: ServerVersion, ThreadID: 1234, AuthPlugin: "mysql_native_password"}
	for i := range want.Salt {
		want.Salt[i] = byte('!' + i)
	}
	got, err := ParseHandshake(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.ThreadID != want.ThreadID ||
		got.Salt != want.Salt || got.AuthPlugin != want.AuthPlugin {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestLoginRequestRoundTrip(t *testing.T) {
	f := func(user, db string, auth []byte) bool {
		if bytes.IndexByte([]byte(user), 0) >= 0 || bytes.IndexByte([]byte(db), 0) >= 0 {
			return true // NUL-terminated fields cannot carry NULs
		}
		if len(auth) > 255 {
			auth = auth[:255]
		}
		in := LoginRequest{
			Capabilities: CapLongPassword | CapProtocol41 | CapSecureConnection | CapPluginAuth | CapConnectWithDB,
			MaxPacket:    1 << 24,
			Charset:      0x21,
			User:         user,
			AuthData:     auth,
			Database:     db,
			AuthPlugin:   "mysql_native_password",
		}
		out, err := ParseLoginRequest(EncodeLoginRequest(in))
		if err != nil {
			return false
		}
		return out.User == in.User && bytes.Equal(out.AuthData, in.AuthData) &&
			out.Database == in.Database && out.AuthPlugin == in.AuthPlugin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseLoginRequestRejectsOldProtocol(t *testing.T) {
	payload := make([]byte, 32) // capabilities = 0 → pre-4.1
	if _, err := ParseLoginRequest(payload); err == nil {
		t.Fatal("pre-4.1 login accepted")
	}
}

func TestErrPacketShape(t *testing.T) {
	p := ErrPacket(1045, "28000", "Access denied")
	if p[0] != 0xff {
		t.Fatalf("marker = %#x", p[0])
	}
	if code := uint16(p[1]) | uint16(p[2])<<8; code != 1045 {
		t.Fatalf("code = %d", code)
	}
	if !bytes.HasSuffix(p, []byte("Access denied")) {
		t.Fatalf("payload = %q", p)
	}
}

func mysqlInfo() core.Info {
	return core.Info{DBMS: core.MySQL, Level: core.Low, Port: 3306, Config: core.ConfigDefault, Group: core.GroupMulti}
}

// Dial performs the client side of a full login attempt against the
// honeypot, complying with the cleartext auth switch.
func dialAndLogin(t *testing.T, conn net.Conn, user, pass string) {
	t.Helper()
	br := bufio.NewReader(conn)
	greeting, err := ReadPacket(br)
	if err != nil {
		t.Fatalf("read greeting: %v", err)
	}
	hs, err := ParseHandshake(greeting.Payload)
	if err != nil {
		t.Fatalf("parse greeting: %v", err)
	}
	if hs.Version != ServerVersion {
		t.Errorf("greeting version = %q", hs.Version)
	}
	lr := LoginRequest{
		Capabilities: CapLongPassword | CapProtocol41 | CapSecureConnection | CapPluginAuth,
		MaxPacket:    1 << 24, Charset: 0x21,
		User: user, AuthData: []byte{0xde, 0xad},
	}
	if err := WritePacket(conn, Packet{Seq: 1, Payload: EncodeLoginRequest(lr)}); err != nil {
		t.Fatal(err)
	}
	sw, err := ReadPacket(br)
	if err != nil {
		t.Fatalf("read auth switch: %v", err)
	}
	if sw.Payload[0] != 0xfe {
		t.Fatalf("expected auth switch, got %#x", sw.Payload[0])
	}
	if err := WritePacket(conn, Packet{Seq: sw.Seq + 1, Payload: append([]byte(pass), 0)}); err != nil {
		t.Fatal(err)
	}
	deny, err := ReadPacket(br)
	if err != nil {
		t.Fatalf("read denial: %v", err)
	}
	if deny.Payload[0] != 0xff {
		t.Fatalf("expected ERR packet, got %#x", deny.Payload[0])
	}
}

func TestHoneypotCapturesCleartext(t *testing.T) {
	hp := New()
	events := hptest.Run(t, hp.Handler(), mysqlInfo(), func(t *testing.T, conn net.Conn) {
		dialAndLogin(t, conn, "root", "aaaaaa")
	})
	logins := hptest.Logins(events)
	if len(logins) != 1 || logins[0] != [2]string{"root", "aaaaaa"} {
		t.Fatalf("logins = %v", logins)
	}
}

func TestHoneypotBannerGrab(t *testing.T) {
	hp := New()
	events := hptest.Run(t, hp.Handler(), mysqlInfo(), func(t *testing.T, conn net.Conn) {
		br := bufio.NewReader(conn)
		if _, err := ReadPacket(br); err != nil {
			t.Fatal(err)
		}
		// Scanner disconnects after the banner.
	})
	if n := len(hptest.Logins(events)); n != 0 {
		t.Fatalf("logins = %d, want 0", n)
	}
	if n := len(hptest.EventsOfKind(events, core.EventConnect)); n != 1 {
		t.Fatalf("connects = %d", n)
	}
}

func TestHoneypotMalformedLogin(t *testing.T) {
	hp := New()
	events := hptest.Run(t, hp.Handler(), mysqlInfo(), func(t *testing.T, conn net.Conn) {
		br := bufio.NewReader(conn)
		if _, err := ReadPacket(br); err != nil {
			t.Fatal(err)
		}
		// Garbage instead of a HandshakeResponse.
		if err := WritePacket(conn, Packet{Seq: 1, Payload: []byte{0x01, 0x02}}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPacket(br); err != nil {
			t.Fatalf("expected denial packet: %v", err)
		}
	})
	cmds := hptest.Commands(events)
	if len(cmds) != 1 || cmds[0] != "MALFORMED-LOGIN" {
		t.Fatalf("commands = %v", cmds)
	}
}

func TestMariaDBVariantBanner(t *testing.T) {
	hp := NewMariaDB()
	info := core.Info{DBMS: core.MariaDB, Level: core.Low, Port: 3306, Config: core.ConfigDefault, Group: core.GroupSingle}
	hptest.Run(t, hp.Handler(), info, func(t *testing.T, conn net.Conn) {
		br := bufio.NewReader(conn)
		greeting, err := ReadPacket(br)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := ParseHandshake(greeting.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if hs.Version != MariaDBVersion {
			t.Fatalf("banner = %q, want MariaDB flavour", hs.Version)
		}
	})
}
