package mongo

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"

	"decoydb/internal/bson"
	"decoydb/internal/core"
	"decoydb/internal/hptest"
)

func TestStoreCRUD(t *testing.T) {
	s := NewStore()
	s.Insert("shop", "customers",
		bson.D{{Key: "_id", Val: int32(1)}, {Key: "name", Val: "amy"}},
		bson.D{{Key: "_id", Val: int32(2)}, {Key: "name", Val: "bob"}},
	)
	s.Insert("shop", "orders", bson.D{{Key: "_id", Val: int32(9)}})

	if got := s.Databases(); !reflect.DeepEqual(got, []string{"shop"}) {
		t.Fatalf("Databases = %v", got)
	}
	if got := s.Collections("shop"); !reflect.DeepEqual(got, []string{"customers", "orders"}) {
		t.Fatalf("Collections = %v", got)
	}
	if got := s.Find("shop", "customers", nil, 0); len(got) != 2 {
		t.Fatalf("Find all = %d docs", len(got))
	}
	byName := s.Find("shop", "customers", bson.D{{Key: "name", Val: "amy"}}, 0)
	if len(byName) != 1 || byName[0].Int("_id") != 1 {
		t.Fatalf("Find by name = %v", byName)
	}
	if n := s.Count("shop", "customers", nil); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if n := s.Delete("shop", "customers", bson.D{{Key: "name", Val: "bob"}}); n != 1 {
		t.Fatalf("Delete = %d", n)
	}
	if n := s.Delete("shop", "customers", nil); n != 1 {
		t.Fatalf("Delete all = %d", n)
	}
	if !s.DropCollection("shop", "orders") {
		t.Fatal("DropCollection failed")
	}
	if s.DropCollection("shop", "orders") {
		t.Fatal("double drop succeeded")
	}
	if !s.DropDatabase("shop") {
		t.Fatal("DropDatabase failed")
	}
	if len(s.Databases()) != 0 {
		t.Fatal("database survived drop")
	}
}

func TestStoreFilterDollarQuery(t *testing.T) {
	s := NewStore()
	s.Insert("db", "c", bson.D{{Key: "k", Val: "v"}}, bson.D{{Key: "k", Val: "w"}})
	got := s.Find("db", "c", bson.D{{Key: "$query", Val: bson.D{{Key: "k", Val: "v"}}}}, 0)
	if len(got) != 1 {
		t.Fatalf("$query filter = %d docs", len(got))
	}
}

func mongoInfo() core.Info {
	return core.Info{DBMS: core.MongoDB, Level: core.High, Port: 27017, Config: core.ConfigFakeData, Group: core.GroupHigh, Region: "NL"}
}

// mongoClient speaks OP_MSG to the honeypot.
type mongoClient struct {
	t   *testing.T
	br  *bufio.Reader
	c   net.Conn
	seq int32
}

func newMongoClient(t *testing.T, c net.Conn) *mongoClient {
	return &mongoClient{t: t, br: bufio.NewReader(c), c: c}
}

func (m *mongoClient) run(cmd bson.D) bson.D {
	m.t.Helper()
	m.seq++
	b, err := EncodeMsg(m.seq, cmd)
	if err != nil {
		m.t.Fatal(err)
	}
	if _, err := m.c.Write(b); err != nil {
		m.t.Fatal(err)
	}
	reply, err := ReadMessage(m.br)
	if err != nil {
		m.t.Fatalf("read reply: %v", err)
	}
	return reply.Body
}

func seedStore() *Store {
	s := NewStore()
	s.Insert("customers", "records",
		bson.D{{Key: "_id", Val: int32(1)}, {Key: "name", Val: "Amber Duke"}, {Key: "card", Val: "4532-1111"}},
		bson.D{{Key: "_id", Val: int32(2)}, {Key: "name", Val: "Hattie Bond"}, {Key: "card", Val: "4532-2222"}},
	)
	return s
}

func TestHandshakeCommands(t *testing.T) {
	hp := New(seedStore())
	hptest.Run(t, hp.Handler(), mongoInfo(), func(t *testing.T, conn net.Conn) {
		cl := newMongoClient(t, conn)
		hello := cl.run(bson.D{{Key: "isMaster", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		if v, _ := hello.Lookup("ismaster"); v != true {
			t.Fatalf("isMaster = %v", hello)
		}
		bi := cl.run(bson.D{{Key: "buildInfo", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		if bi.Str("version") != Version {
			t.Fatalf("buildInfo version = %q", bi.Str("version"))
		}
		ping := cl.run(bson.D{{Key: "ping", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		if ping.Int("ok") != 1 {
			t.Fatalf("ping = %v", ping)
		}
	})
}

// TestRansomAttackSequence exercises the paper's Section 6.3 data-theft
// attack end to end: enumerate, dump, wipe, drop a ransom note.
func TestRansomAttackSequence(t *testing.T) {
	hp := New(seedStore())
	events := hptest.Run(t, hp.Handler(), mongoInfo(), func(t *testing.T, conn net.Conn) {
		cl := newMongoClient(t, conn)
		dbs := cl.run(bson.D{{Key: "listDatabases", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		arr, _ := dbs.Lookup("databases")
		if len(arr.(bson.A)) != 1 {
			t.Fatalf("listDatabases = %v", dbs)
		}
		colls := cl.run(bson.D{{Key: "listCollections", Val: int32(1)}, {Key: "$db", Val: "customers"}})
		batch, _ := colls.Doc("cursor").Lookup("firstBatch")
		if len(batch.(bson.A)) != 1 {
			t.Fatalf("listCollections = %v", colls)
		}
		dump := cl.run(bson.D{{Key: "find", Val: "records"}, {Key: "$db", Val: "customers"}})
		docs, _ := dump.Doc("cursor").Lookup("firstBatch")
		if len(docs.(bson.A)) != 2 {
			t.Fatalf("dump = %v", dump)
		}
		del := cl.run(bson.D{
			{Key: "delete", Val: "records"},
			{Key: "deletes", Val: bson.A{bson.D{{Key: "q", Val: bson.D{}}, {Key: "limit", Val: int32(0)}}}},
			{Key: "$db", Val: "customers"},
		})
		if del.Int("n") != 2 {
			t.Fatalf("delete = %v", del)
		}
		note := bson.D{{Key: "content", Val: "All your data is backed up. You must pay 0.0058 BTC"}}
		ins := cl.run(bson.D{
			{Key: "insert", Val: "README"},
			{Key: "documents", Val: bson.A{note}},
			{Key: "$db", Val: "customers"},
		})
		if ins.Int("n") != 1 {
			t.Fatalf("insert = %v", ins)
		}
	})
	// Store state: data gone, ransom note present.
	if n := hp.Store().Count("customers", "records", nil); n != 0 {
		t.Fatalf("records left = %d", n)
	}
	if n := hp.Store().Count("customers", "README", nil); n != 1 {
		t.Fatalf("ransom notes = %d", n)
	}
	cmds := hptest.Commands(events)
	want := []string{"LISTDATABASES", "LISTCOLLECTIONS", "FIND", "DELETE", "INSERT"}
	if !reflect.DeepEqual(cmds, want) {
		t.Fatalf("commands = %v, want %v", cmds, want)
	}
}

func TestOpQueryLegacyPath(t *testing.T) {
	hp := New(seedStore())
	hptest.Run(t, hp.Handler(), mongoInfo(), func(t *testing.T, conn net.Conn) {
		br := bufio.NewReader(conn)
		// Legacy isMaster via OP_QUERY on admin.$cmd.
		q, err := EncodeQuery(1, "admin.$cmd", bson.D{{Key: "ismaster", Val: int32(1)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(q); err != nil {
			t.Fatal(err)
		}
		// OP_REPLY: parse header + skip to document.
		var hdr [16]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatal(err)
		}
		// total length then the rest of the reply.
		total := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
		rest := make([]byte, total-16)
		if _, err := io.ReadFull(br, rest); err != nil {
			t.Fatal(err)
		}
		// responseFlags(4) cursorID(8) startingFrom(4) numberReturned(4).
		doc, err := bson.Unmarshal(rest[20:])
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := doc.Lookup("ismaster"); v != true {
			t.Fatalf("legacy isMaster = %v", doc)
		}
	})
}

func TestWireRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0xdd, 0x07, 0, 0})
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("oversized message accepted")
	}
}

// TestBareHeaderBounded: a header that declares MaxMessage and is then
// followed by EOF costs the reader its read-ahead, not the 2 MiB the
// header declares.
func TestBareHeaderBounded(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, MaxMessage)
	hdr = append(hdr, make([]byte, 8)...)
	hdr = binary.LittleEndian.AppendUint32(hdr, OpMsg)
	hptest.CheckBareHeader(t, func() error {
		_, err := ReadMessage(bytes.NewReader(hdr))
		return err
	})
}

func TestUnknownCommand(t *testing.T) {
	hp := New(NewStore())
	hptest.Run(t, hp.Handler(), mongoInfo(), func(t *testing.T, conn net.Conn) {
		cl := newMongoClient(t, conn)
		resp := cl.run(bson.D{{Key: "weirdCmd", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		if resp.Int("ok") != 0 || resp.Str("codeName") != "CommandNotFound" {
			t.Fatalf("unknown command reply = %v", resp)
		}
	})
}

func TestAuthAttemptLogged(t *testing.T) {
	hp := New(NewStore())
	events := hptest.Run(t, hp.Handler(), mongoInfo(), func(t *testing.T, conn net.Conn) {
		cl := newMongoClient(t, conn)
		resp := cl.run(bson.D{{Key: "saslStart", Val: int32(1)}, {Key: "mechanism", Val: "SCRAM-SHA-1"}, {Key: "$db", Val: "admin"}})
		if resp.Str("codeName") != "AuthenticationFailed" {
			t.Fatalf("saslStart reply = %v", resp)
		}
	})
	cmds := hptest.Commands(events)
	if len(cmds) != 1 || cmds[0] != "AUTH" {
		t.Fatalf("commands = %v", cmds)
	}
}
