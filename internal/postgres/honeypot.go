package postgres

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"decoydb/internal/core"
)

// Mode selects the honeypot behaviour.
type Mode int

// Honeypot modes.
const (
	// ModeLow is the Qeeqbox-style credential trap: ask for a cleartext
	// password, log it, reject, close.
	ModeLow Mode = iota
	// ModeOpen is Sticky Elephant's default: accept any credentials and
	// answer queries with scripted results.
	ModeOpen
	// ModeNoLogin is the paper's restricted configuration: password auth
	// always fails.
	ModeNoLogin
)

// ServerVersion is the advertised PostgreSQL version.
const ServerVersion = "12.7 (Ubuntu 12.7-0ubuntu0.20.04.1)"

// Honeypot implements the PostgreSQL honeypot in the selected mode.
type Honeypot struct {
	Mode Mode
}

// New returns a PostgreSQL honeypot in the given mode.
func New(mode Mode) *Honeypot { return &Honeypot{Mode: mode} }

// Handler returns a core.Handler bound to this honeypot.
func (h *Honeypot) Handler() core.Handler {
	return core.HandlerFunc(h.HandleConn)
}

// HandleConn serves one client connection.
func (h *Honeypot) HandleConn(ctx context.Context, conn net.Conn, s *core.Session) error {
	s.Connect()
	br := bufio.NewReaderSize(conn, 8192)
	bw := bufio.NewWriterSize(conn, 8192)

	// Peek at the length prefix before parsing. Non-PostgreSQL bytes on
	// 5432 — RDP cookies, JDWP handshakes, HTTP requests — declare absurd
	// lengths; the paper's Table 9 counts these as "scans for services
	// unrelated to the DBMS", so the raw prefix itself must be preserved
	// for classification, not just a parse error.
	hdr, err := br.Peek(4)
	if err != nil {
		return nil // port scan: connect + close
	}
	if n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]); n < 8 || n > MaxMessage {
		junk := make([]byte, 256)
		rn, _ := br.Read(junk)
		s.Command("PROTOCOL-ERROR", string(junk[:rn]))
		return nil
	}

	st, err := ReadStartup(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		s.Command("PROTOCOL-ERROR", err.Error())
		return nil
	}
	if st.Protocol == SSLRequestCode || st.Protocol == GSSEncRequest {
		if _, err := conn.Write([]byte{'N'}); err != nil {
			return err
		}
		st, err = ReadStartup(br)
		if err != nil {
			return nil
		}
	}
	if st.Protocol == CancelRequest {
		return nil
	}
	if st.Protocol != ProtocolVersion {
		// Not a v3 startup: could be RDP/JDWP/HTTP junk that happened to
		// parse. Log the raw-ish signal.
		s.Command("NON-PG-HANDSHAKE", fmt.Sprintf("protocol=%d params=%v", st.Protocol, st.Params))
		return nil
	}

	user := st.Params["user"]

	if err := writeMsgs(bw, AuthCleartext()); err != nil {
		return err
	}
	msg, err := ReadMsg(br)
	if err != nil {
		return nil // gave up at the password prompt: still a scouting data point
	}
	if msg.Type != 'p' {
		s.Command("UNEXPECTED-MSG", string(msg.Type))
		return nil
	}
	pass := msg.Text()

	switch h.Mode {
	case ModeLow, ModeNoLogin:
		s.Login(user, pass, false)
		e := ErrorResponse("FATAL", "28P01",
			fmt.Sprintf("password authentication failed for user %q", user))
		if err := writeMsgs(bw, e); err != nil {
			return err
		}
		return nil
	case ModeOpen:
		s.Login(user, pass, true)
		if err := writeMsgs(bw,
			AuthOK(),
			ParameterStatus("server_version", ServerVersion),
			ParameterStatus("server_encoding", "UTF8"),
			ParameterStatus("client_encoding", "UTF8"),
			BackendKeyData(4242, 1337),
			ReadyForQuery(),
		); err != nil {
			return err
		}
		return h.queryLoop(ctx, br, bw, s)
	}
	return nil
}

func (h *Honeypot) queryLoop(ctx context.Context, br *bufio.Reader, bw *bufio.Writer, s *core.Session) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		msg, err := ReadMsg(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		switch msg.Type {
		case 'Q':
			sql := msg.Text()
			s.Command(NormalizeQuery(sql), sql)
			if err := writeMsgs(bw, respond(sql)...); err != nil {
				return err
			}
		case 'X':
			return nil
		case 'p':
			// Repeated password message mid-session; ignore.
		default:
			s.Command("UNEXPECTED-MSG", string(msg.Type))
			if err := writeMsgs(bw,
				ErrorResponse("ERROR", "0A000", "unsupported frontend message"),
				ReadyForQuery()); err != nil {
				return err
			}
		}
	}
}

// respond builds the scripted reply for one simple query, the Sticky
// Elephant "handler script" approach: answer plausibly, execute nothing.
func respond(sql string) []Msg {
	action := NormalizeQuery(sql)
	switch action {
	case "SELECT VERSION":
		return []Msg{
			RowDescription("version"),
			DataRow("PostgreSQL " + ServerVersion + " on x86_64-pc-linux-gnu"),
			CommandComplete("SELECT 1"),
			ReadyForQuery(),
		}
	case "DROP TABLE":
		return []Msg{CommandComplete("DROP TABLE"), ReadyForQuery()}
	case "CREATE TABLE":
		return []Msg{CommandComplete("CREATE TABLE"), ReadyForQuery()}
	case "CREATE USER":
		return []Msg{CommandComplete("CREATE ROLE"), ReadyForQuery()}
	case "ALTER USER", "ALTER ROLE":
		return []Msg{CommandComplete("ALTER ROLE"), ReadyForQuery()}
	case "COPY FROM PROGRAM", "COPY":
		return []Msg{CommandComplete("COPY 1"), ReadyForQuery()}
	case "INSERT":
		return []Msg{CommandComplete("INSERT 0 1"), ReadyForQuery()}
	case "UPDATE":
		return []Msg{CommandComplete("UPDATE 1"), ReadyForQuery()}
	case "DELETE":
		return []Msg{CommandComplete("DELETE 1"), ReadyForQuery()}
	case "SET":
		return []Msg{CommandComplete("SET"), ReadyForQuery()}
	case "SHOW":
		return []Msg{
			RowDescription("setting"),
			DataRow("on"),
			CommandComplete("SHOW"),
			ReadyForQuery(),
		}
	case "SELECT", "SELECT PG_SLEEP":
		return []Msg{
			RowDescription("?column?"),
			DataRow(""),
			CommandComplete("SELECT 1"),
			ReadyForQuery(),
		}
	case "TXN":
		return []Msg{CommandComplete("BEGIN"), ReadyForQuery()}
	case "EMPTY":
		return []Msg{{Type: 'I', Payload: nil}, ReadyForQuery()}
	default:
		return []Msg{
			ErrorResponse("ERROR", "42601", "syntax error at or near \""+firstWord(sql)+"\""),
			ReadyForQuery(),
		}
	}
}

func firstWord(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return ""
	}
	if len(f[0]) > 32 {
		return f[0][:32]
	}
	return f[0]
}

func writeMsgs(bw *bufio.Writer, msgs ...Msg) error {
	for _, m := range msgs {
		if err := WriteMsg(bw, m.Type, m.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}
