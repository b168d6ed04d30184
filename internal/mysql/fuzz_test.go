package mysql

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoginRequest reads arbitrary bytes as the packets a client answers
// the greeting with, and decodes each as a handshake response.
// Properties: no input panics ReadPacket or ParseLoginRequest, and a
// response that parses re-encodes with EncodeLoginRequest and parses
// back equal. The seeds are the simulator's login dialogue, each
// auth-data framing the capabilities select, and credentials from SQL
// injection campaigns.
func FuzzLoginRequest(f *testing.F) {
	base := LoginRequest{
		Capabilities: CapLongPassword | CapProtocol41 | CapSecureConnection | CapPluginAuth,
		MaxPacket:    1 << 24, Charset: 0x21,
		User: "root", AuthData: []byte{0x01},
	}
	for _, lr := range []LoginRequest{
		base,
		{Capabilities: base.Capabilities | CapConnectWithDB, MaxPacket: 1 << 24, Charset: 0x21,
			User: "admin' OR '1'='1'--", AuthData: bytes.Repeat([]byte{0xab}, 20), Database: "'; DROP TABLE users;--"},
		{Capabilities: CapProtocol41 | CapPluginAuth | CapPluginAuthLenencData, User: "sa",
			AuthData: bytes.Repeat([]byte("1'; EXEC xp_cmdshell('whoami');--"), 10), AuthPlugin: "mysql_clear_password"},
		{Capabilities: CapProtocol41, User: "root", AuthData: []byte("' OR '1'='1")},
	} {
		var b bytes.Buffer
		if err := WritePacket(&b, Packet{Seq: 1, Payload: EncodeLoginRequest(lr)}); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()/2])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			p, err := ReadPacket(r)
			if err != nil {
				return
			}
			lr, err := ParseLoginRequest(p.Payload)
			if err != nil {
				continue
			}
			again := EncodeLoginRequest(lr)
			back, err := ParseLoginRequest(again)
			if err != nil {
				t.Fatalf("accepted %+v re-encodes to %x, which does not parse: %v", lr, again, err)
			}
			want := lr
			if want.Capabilities&CapPluginAuth != 0 && want.AuthPlugin == "" {
				want.AuthPlugin = "mysql_native_password" // EncodeLoginRequest's default
			}
			if !bytes.Equal(back.AuthData, want.AuthData) {
				t.Fatalf("accepted auth data %x re-encodes to %x", want.AuthData, back.AuthData)
			}
			back.AuthData, want.AuthData = nil, nil
			if !reflect.DeepEqual(back, want) {
				t.Fatalf("accepted %+v re-encodes to one that parses as %+v", want, back)
			}
		}
	})
}
