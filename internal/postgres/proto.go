// Package postgres implements the PostgreSQL honeypots the paper deployed:
// the low-interaction Qeeqbox-style credential trap and the
// medium-interaction "Sticky Elephant" variant that accepts logins and
// answers the simple-query protocol with scripted results.
//
// Two configurations mirror the paper's Section 4.2 deployment: the default
// medium config lets everyone in (real open PostgreSQL), while the
// "nologin" config rejects every password — the paper found the restricted
// variant attracted over twice the login attempts (29,217 vs 14,084).
package postgres

import (
	"fmt"
	"io"
	"strings"

	"decoydb/internal/wire"
)

// Protocol constants.
const (
	ProtocolVersion = 196608   // 3.0
	SSLRequestCode  = 80877103 // magic "SSLRequest" version
	CancelRequest   = 80877102
	GSSEncRequest   = 80877104
)

// MaxMessage bounds one frontend message.
const MaxMessage = 1 << 20

// Startup is the parsed startup packet.
type Startup struct {
	Protocol uint32
	Params   map[string]string // user, database, application_name, ...
}

// ReadStartup reads the untyped startup packet (or an SSL/GSS request,
// reported via the Protocol field).
func ReadStartup(r io.Reader) (Startup, error) {
	n, err := wire.ReadUint32BE(r)
	if err != nil {
		return Startup{}, err
	}
	if n < 8 || n > MaxMessage {
		return Startup{}, fmt.Errorf("%w: startup length %d", wire.ErrFrameTooLarge, n)
	}
	body, err := wire.ReadN(r, int(n-4), MaxMessage)
	if err != nil {
		return Startup{}, err
	}
	rd := wire.NewReader(body)
	proto, err := rd.Uint32BE()
	if err != nil {
		return Startup{}, err
	}
	s := Startup{Protocol: proto, Params: map[string]string{}}
	if proto == SSLRequestCode || proto == CancelRequest || proto == GSSEncRequest {
		return s, nil
	}
	for rd.Len() > 1 {
		k, err := rd.CString()
		if err != nil {
			break
		}
		if k == "" {
			break
		}
		v, err := rd.CString()
		if err != nil {
			break
		}
		s.Params[k] = v
	}
	return s, nil
}

// EncodeStartup renders a startup packet (client side).
func EncodeStartup(params map[string]string) []byte {
	w := wire.NewWriter(64)
	w.Uint32BE(0) // length placeholder
	w.Uint32BE(ProtocolVersion)
	// Deterministic order: user first, then the rest sorted lexically is
	// overkill; user/database are the only keys the honeypot reads.
	if u, ok := params["user"]; ok {
		w.CString("user").CString(u)
	}
	for k, v := range params {
		if k == "user" {
			continue
		}
		w.CString(k).CString(v)
	}
	w.Uint8(0)
	b := w.Bytes()
	b[0] = byte(len(b) >> 24)
	b[1] = byte(len(b) >> 16)
	b[2] = byte(len(b) >> 8)
	b[3] = byte(len(b))
	return b
}

// Msg is one typed protocol message.
type Msg struct {
	Type    byte
	Payload []byte
}

// Text is a password or query message's text: its payload without the
// terminating NUL.
func (m Msg) Text() string { return strings.TrimRight(string(m.Payload), "\x00") }

// ReadMsg reads one typed message (frontend or backend).
func ReadMsg(r io.Reader) (Msg, error) {
	t, err := wire.ReadUint8(r)
	if err != nil {
		return Msg{}, err
	}
	n, err := wire.ReadUint32BE(r)
	if err != nil {
		return Msg{}, err
	}
	if n < 4 || n > MaxMessage {
		return Msg{}, fmt.Errorf("%w: message length %d", wire.ErrFrameTooLarge, n)
	}
	payload, err := wire.ReadN(r, int(n-4), MaxMessage)
	if err != nil {
		return Msg{}, err
	}
	return Msg{Type: t, Payload: payload}, nil
}

// WriteMsg writes one typed message.
func WriteMsg(w io.Writer, t byte, payload []byte) error {
	hdr := wire.NewWriter(5 + len(payload))
	hdr.Uint8(t)
	hdr.Uint32BE(uint32(len(payload) + 4))
	hdr.Raw(payload)
	_, err := w.Write(hdr.Bytes())
	return err
}

// Backend message builders.

// AuthCleartext asks the client for a cleartext password.
func AuthCleartext() Msg {
	return Msg{Type: 'R', Payload: wire.NewWriter(4).Uint32BE(3).Bytes()}
}

// AuthOK signals successful authentication.
func AuthOK() Msg {
	return Msg{Type: 'R', Payload: wire.NewWriter(4).Uint32BE(0).Bytes()}
}

// ParameterStatus reports a server parameter.
func ParameterStatus(k, v string) Msg {
	w := wire.NewWriter(len(k) + len(v) + 2)
	w.CString(k).CString(v)
	return Msg{Type: 'S', Payload: w.Bytes()}
}

// BackendKeyData supplies cancel credentials.
func BackendKeyData(pid, key uint32) Msg {
	w := wire.NewWriter(8)
	w.Uint32BE(pid).Uint32BE(key)
	return Msg{Type: 'K', Payload: w.Bytes()}
}

// ReadyForQuery signals the server is idle.
func ReadyForQuery() Msg {
	return Msg{Type: 'Z', Payload: []byte{'I'}}
}

// ErrorResponse builds an error message with severity, SQLSTATE code and
// human message.
func ErrorResponse(severity, code, message string) Msg {
	w := wire.NewWriter(32 + len(message))
	w.Uint8('S').CString(severity)
	w.Uint8('C').CString(code)
	w.Uint8('M').CString(message)
	w.Uint8(0)
	return Msg{Type: 'E', Payload: w.Bytes()}
}

// ParseErrorResponse extracts the severity/code/message fields (client
// side).
func ParseErrorResponse(payload []byte) map[byte]string {
	out := map[byte]string{}
	r := wire.NewReader(payload)
	for r.Len() > 0 {
		f, err := r.Uint8()
		if err != nil || f == 0 {
			break
		}
		v, err := r.CString()
		if err != nil {
			break
		}
		out[f] = v
	}
	return out
}

// RowDescription describes a single-text-column result.
func RowDescription(cols ...string) Msg {
	w := wire.NewWriter(8 + 24*len(cols))
	w.Uint16BE(uint16(len(cols)))
	for _, c := range cols {
		w.CString(c)
		w.Uint32BE(0)      // table oid
		w.Uint16BE(0)      // attr number
		w.Uint32BE(25)     // type oid: text
		w.Uint16BE(0xffff) // typlen -1
		w.Uint32BE(0xffffffff)
		w.Uint16BE(0) // text format
	}
	return Msg{Type: 'T', Payload: w.Bytes()}
}

// DataRow builds a text-format data row.
func DataRow(vals ...string) Msg {
	w := wire.NewWriter(8 + 16*len(vals))
	w.Uint16BE(uint16(len(vals)))
	for _, v := range vals {
		w.Uint32BE(uint32(len(v)))
		w.String(v)
	}
	return Msg{Type: 'D', Payload: w.Bytes()}
}

// CommandComplete reports the command tag ("SELECT 1", "CREATE TABLE"...).
func CommandComplete(tag string) Msg {
	w := wire.NewWriter(len(tag) + 1)
	w.CString(tag)
	return Msg{Type: 'C', Payload: w.Bytes()}
}

// EncodePassword renders a frontend PasswordMessage payload.
func EncodePassword(pass string) []byte {
	w := wire.NewWriter(len(pass) + 1)
	w.CString(pass)
	return w.Bytes()
}

// EncodeQuery renders a frontend Query payload.
func EncodeQuery(sql string) []byte {
	w := wire.NewWriter(len(sql) + 1)
	w.CString(sql)
	return w.Bytes()
}

// NormalizeQuery maps a SQL text to the action token used by the
// classifier and clustering: leading keywords, with the security-relevant
// COPY ... FROM PROGRAM form distinguished (PostgreSQL's code-execution
// primitive, used by Kinsing in the paper's Listing 4).
func NormalizeQuery(sql string) string {
	s := strings.TrimSpace(sql)
	up := strings.ToUpper(s)
	switch {
	case strings.HasPrefix(up, "COPY") && strings.Contains(up, "FROM PROGRAM"):
		return "COPY FROM PROGRAM"
	case strings.HasPrefix(up, "COPY"):
		return "COPY"
	case strings.HasPrefix(up, "DROP TABLE"):
		return "DROP TABLE"
	case strings.HasPrefix(up, "CREATE TABLE"):
		return "CREATE TABLE"
	case strings.HasPrefix(up, "ALTER USER"):
		return "ALTER USER"
	case strings.HasPrefix(up, "ALTER ROLE"):
		return "ALTER ROLE"
	case strings.HasPrefix(up, "CREATE USER"), strings.HasPrefix(up, "CREATE ROLE"):
		return "CREATE USER"
	case strings.HasPrefix(up, "SELECT VERSION"):
		return "SELECT VERSION"
	case strings.HasPrefix(up, "SELECT PG_SLEEP"):
		return "SELECT PG_SLEEP"
	case strings.HasPrefix(up, "SELECT"):
		return "SELECT"
	case strings.HasPrefix(up, "INSERT"):
		return "INSERT"
	case strings.HasPrefix(up, "UPDATE"):
		return "UPDATE"
	case strings.HasPrefix(up, "DELETE"):
		return "DELETE"
	case strings.HasPrefix(up, "SET"):
		return "SET"
	case strings.HasPrefix(up, "SHOW"):
		return "SHOW"
	case strings.HasPrefix(up, "BEGIN"), strings.HasPrefix(up, "COMMIT"), strings.HasPrefix(up, "ROLLBACK"):
		return "TXN"
	case up == "":
		return "EMPTY"
	default:
		fields := strings.Fields(up)
		if len(fields) > 0 {
			return fields[0]
		}
		return "UNKNOWN"
	}
}
