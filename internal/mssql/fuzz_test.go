package mssql

import (
	"bytes"
	"testing"
)

// FuzzLogin reads arbitrary bytes as the TDS packets a client opens a
// session with, and runs the PRELOGIN and LOGIN7 decoders over every
// packet that frames. Properties: no input panics them, an ENCRYPTION
// option that parses re-encodes with EncodePrelogin and parses back
// equal, and a LOGIN7 that parses re-encodes with EncodeLogin7 and
// parses back equal. The seeds are the simulator's brute-force dialogue
// with credentials from SQL injection and xp_cmdshell campaigns.
func FuzzLogin(f *testing.F) {
	pkt := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := WritePacket(&b, Packet{Type: typ, Payload: payload}); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	prelogin := pkt(PktPrelogin, StandardPrelogin(11, 0, 0, 0))
	for _, c := range [][2]string{
		{"sa", "123"},
		{"sa", ""},
		{"admin' OR '1'='1'--", "' OR '1'='1"},
		{"sa", "1'; EXEC xp_cmdshell('whoami');--"},
		{"'; DROP TABLE users;--", "1' WAITFOR DELAY '0:0:5'--"},
		{"sä", "пароль😀"},
	} {
		l7 := EncodeLogin7(Login7{HostName: "WIN-BRUTE", UserName: c[0], Password: c[1], AppName: "OSQL-32"})
		f.Add(append(append([]byte(nil), prelogin...), pkt(PktLogin7, l7)...))
		f.Add(pkt(PktLogin7, l7[:len(l7)/2]))
	}
	f.Add(pkt(PktPrelogin, EncodePrelogin(nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			p, err := ReadPacket(r)
			if err != nil {
				return
			}
			if enc := ParsePreloginEncryption(p.Payload); enc != 0xff {
				again := EncodePrelogin([][2][]byte{{{PreloginEncryption}, {enc}}})
				if back := ParsePreloginEncryption(again); back != enc {
					t.Fatalf("ENCRYPTION %#x re-encodes to %x, which parses as %#x", enc, again, back)
				}
			}
			l, err := ParseLogin7(p.Payload)
			if err != nil {
				continue
			}
			again := EncodeLogin7(l)
			if len(again) > MaxPacket-8 {
				continue // fields that overlapped in the packet fill more than one when laid out apart
			}
			back, err := ParseLogin7(again)
			if err != nil {
				t.Fatalf("accepted LOGIN7 %+v re-encodes to %x, which does not parse: %v", l, again, err)
			}
			want := l
			if want.TDSVersion == 0 {
				want.TDSVersion = defaultTDSVersion
			}
			if back != want {
				t.Fatalf("accepted LOGIN7 %+v re-encodes to one that parses as %+v", want, back)
			}
		}
	})
}
