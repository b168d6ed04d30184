package postgres

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSession reads arbitrary bytes as what a client sends a Postgres
// honeypot: a startup packet, another after an SSL or GSS request, then
// typed messages. Properties: no input panics ReadStartup or ReadMsg, a
// protocol 3.0 startup re-encodes with EncodeStartup and reads back
// equal, every message re-encodes with WriteMsg and reads back equal,
// and a password or query's text re-encodes with EncodePassword or
// EncodeQuery to the same text. The seeds are the simulator's login
// dialogue with SQL injection and xp_cmdshell strings.
func FuzzSession(f *testing.F) {
	msg := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteMsg(&b, typ, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	ssl := []byte{0, 0, 0, 8, 0x04, 0xd2, 0x16, 0x2f}
	for _, c := range [][3]string{
		{"postgres", "postgres", "SELECT version();"},
		{"admin' OR '1'='1'--", "' OR '1'='1", "1 UNION SELECT username,password,NULL FROM users--"},
		{"sa", "anything", "1'; EXEC xp_cmdshell('whoami');--"},
		{"postgres", "123456", "DROP TABLE IF EXISTS cmd_exec; CREATE TABLE cmd_exec(cmd_output text); COPY cmd_exec FROM PROGRAM 'id';"},
	} {
		session := EncodeStartup(map[string]string{"user": c[0], "database": c[0]})
		session = append(session, msg('p', EncodePassword(c[1]))...)
		session = append(session, msg('Q', EncodeQuery(c[2]))...)
		session = append(session, msg('X', nil)...)
		f.Add(session)
		f.Add(append(append([]byte(nil), ssl...), session...))
		f.Add(session[:len(session)/2])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		s, err := ReadStartup(r)
		if err == nil && (s.Protocol == SSLRequestCode || s.Protocol == GSSEncRequest) {
			s, err = ReadStartup(r)
		}
		if err != nil {
			return
		}
		if s.Protocol == ProtocolVersion {
			again := EncodeStartup(s.Params)
			back, err := ReadStartup(bytes.NewReader(again))
			if err != nil {
				t.Fatalf("accepted startup %+v re-encodes to %x, which does not read: %v", s, again, err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("accepted startup %+v re-encodes to one that reads as %+v", s, back)
			}
		}
		for {
			m, err := ReadMsg(r)
			if err != nil {
				return
			}
			var again bytes.Buffer
			if err := WriteMsg(&again, m.Type, m.Payload); err != nil {
				t.Fatal(err)
			}
			back, err := ReadMsg(&again)
			if err != nil || back.Type != m.Type || !bytes.Equal(back.Payload, m.Payload) {
				t.Fatalf("message %c %x re-encodes to one that reads as %c %x (%v)", m.Type, m.Payload, back.Type, back.Payload, err)
			}
			var text []byte
			switch m.Type {
			case 'p':
				text = EncodePassword(m.Text())
			case 'Q':
				text = EncodeQuery(m.Text())
			default:
				continue
			}
			if got := (Msg{Type: m.Type, Payload: text}).Text(); got != m.Text() {
				t.Fatalf("%c text %q re-encodes to one that reads as %q", m.Type, m.Text(), got)
			}
		}
	})
}
