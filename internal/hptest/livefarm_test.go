// Live integration test: the full honeypot suite served over real TCP
// listeners, attacked concurrently by protocol-correct clients, with the
// capture verified through the same pipeline the paper reproduction uses.
package hptest

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"decoydb/internal/bson"
	"decoydb/internal/classify"
	"decoydb/internal/core"
	"decoydb/internal/elastic"
	"decoydb/internal/evstore"
	"decoydb/internal/fakedata"
	"decoydb/internal/geoip"
	"decoydb/internal/mongo"
	"decoydb/internal/mssql"
	"decoydb/internal/mysql"
	"decoydb/internal/postgres"
	"decoydb/internal/redis"
)

func TestLiveFarmAllProtocols(t *testing.T) {
	store := evstore.New(core.ExperimentStart, 20, geoip.Default())
	farm := core.NewFarm(core.RealClock{}, store, core.FarmOptions{
		SessionTimeout: 10 * time.Second,
		Logf:           func(string, ...any) {},
	})
	defer farm.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	mongoStore := mongo.NewStore()
	for _, doc := range fakedata.New(3).MongoCustomers(10) {
		mongoStore.Insert("customers", "records", doc)
	}
	deploy := map[string]core.Handler{
		core.MySQL:    mysql.New().Handler(),
		core.MSSQL:    mssql.New().Handler(),
		core.Postgres: postgres.New(postgres.ModeOpen).Handler(),
		core.Redis:    redis.New(redis.Options{FakeData: map[string]string{"user:001": "x:y"}}).Handler(),
		core.Elastic:  elastic.New().Handler(),
		core.MongoDB:  mongo.New(mongoStore).Handler(),
	}
	addrs := map[string]net.Addr{}
	for dbms, h := range deploy {
		level := core.Low
		switch dbms {
		case core.Redis, core.Elastic, core.Postgres:
			level = core.Medium
		case core.MongoDB:
			level = core.High
		}
		info := core.Info{DBMS: dbms, Level: level, Config: core.ConfigDefault, Group: core.GroupSingle}
		addr, err := farm.Listen(ctx, "127.0.0.1:0", &core.Honeypot{Info: info, Handler: h})
		if err != nil {
			t.Fatal(err)
		}
		addrs[dbms] = addr
	}

	dial := func(dbms string) net.Conn {
		conn, err := net.Dial("tcp", addrs[dbms].String())
		if err != nil {
			t.Fatalf("dial %s: %v", dbms, err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	// MySQL: full login with cleartext auth switch.
	func() {
		conn := dial(core.MySQL)
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := mysql.ReadPacket(br); err != nil {
			t.Fatalf("mysql greeting: %v", err)
		}
		lr := mysql.LoginRequest{
			Capabilities: mysql.CapLongPassword | mysql.CapProtocol41 | mysql.CapSecureConnection | mysql.CapPluginAuth,
			MaxPacket:    1 << 24, Charset: 0x21, User: "root", AuthData: []byte{1},
		}
		mysql.WritePacket(conn, mysql.Packet{Seq: 1, Payload: mysql.EncodeLoginRequest(lr)})
		sw, err := mysql.ReadPacket(br)
		if err != nil {
			t.Fatalf("mysql switch: %v", err)
		}
		mysql.WritePacket(conn, mysql.Packet{Seq: sw.Seq + 1, Payload: append([]byte("toor"), 0)})
		mysql.ReadPacket(br)
	}()

	// MSSQL: one brute attempt.
	func() {
		conn := dial(core.MSSQL)
		defer conn.Close()
		br := bufio.NewReader(conn)
		mssql.WritePacket(conn, mssql.Packet{Type: mssql.PktPrelogin, Payload: mssql.StandardPrelogin(11, 0, 0, 0)})
		if _, err := mssql.ReadPacket(br); err != nil {
			t.Fatalf("mssql prelogin: %v", err)
		}
		l7 := mssql.EncodeLogin7(mssql.Login7{UserName: "sa", Password: "123"})
		mssql.WritePacket(conn, mssql.Packet{Type: mssql.PktLogin7, Payload: l7})
		if _, err := mssql.ReadPacket(br); err != nil {
			t.Fatalf("mssql denial: %v", err)
		}
	}()

	// PostgreSQL: login + Kinsing-style query.
	func() {
		conn := dial(core.Postgres)
		defer conn.Close()
		br := bufio.NewReader(conn)
		conn.Write(postgres.EncodeStartup(map[string]string{"user": "postgres"}))
		if m, err := postgres.ReadMsg(br); err != nil || m.Type != 'R' {
			t.Fatalf("pg auth request: %v %c", err, m.Type)
		}
		postgres.WriteMsg(conn, 'p', postgres.EncodePassword("postgres"))
		for {
			m, err := postgres.ReadMsg(br)
			if err != nil {
				t.Fatalf("pg: %v", err)
			}
			if m.Type == 'Z' {
				break
			}
		}
		postgres.WriteMsg(conn, 'Q', postgres.EncodeQuery("COPY x FROM PROGRAM 'id';"))
		for {
			m, err := postgres.ReadMsg(br)
			if err != nil {
				t.Fatalf("pg query: %v", err)
			}
			if m.Type == 'Z' {
				break
			}
		}
		postgres.WriteMsg(conn, 'X', nil)
	}()

	// Redis: scouting with TYPE walk.
	func() {
		conn := dial(core.Redis)
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, cmd := range [][]string{{"INFO"}, {"KEYS", "*"}, {"TYPE", "user:001"}} {
			conn.Write(redis.EncodeCommand(cmd...))
			if _, err := redis.ReadValue(br); err != nil {
				t.Fatalf("redis %v: %v", cmd, err)
			}
		}
	}()

	// Elasticsearch: banner + index listing over HTTP.
	func() {
		conn := dial(core.Elastic)
		defer conn.Close()
		br := bufio.NewReader(conn)
		conn.Write([]byte("GET /_cat/indices HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"))
		status, err := br.ReadString('\n')
		if err != nil || status != "HTTP/1.1 200 OK\r\n" {
			t.Fatalf("elastic status = %q, %v", status, err)
		}
	}()

	// MongoDB: enumerate + dump over OP_MSG.
	func() {
		conn := dial(core.MongoDB)
		defer conn.Close()
		br := bufio.NewReader(conn)
		for i, cmd := range []bson.D{
			{{Key: "isMaster", Val: int32(1)}, {Key: "$db", Val: "admin"}},
			{{Key: "listDatabases", Val: int32(1)}, {Key: "$db", Val: "admin"}},
			{{Key: "find", Val: "records"}, {Key: "$db", Val: "customers"}},
		} {
			b, err := mongo.EncodeMsg(int32(i+1), cmd)
			if err != nil {
				t.Fatal(err)
			}
			conn.Write(b)
			if _, err := mongo.ReadMessage(br); err != nil {
				t.Fatalf("mongo reply %d: %v", i, err)
			}
		}
	}()

	// All sessions end; the store must show one loopback source with the
	// right per-protocol activity and an exploiting classification (the
	// COPY FROM PROGRAM query).
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := store.IPs()
		if len(recs) == 1 && len(recs[0].Per) >= 6 {
			rec := recs[0]
			if got := classify.IP(rec, evstore.Query{}); got != classify.Exploiting {
				t.Fatalf("classification = %v, want exploiting", got)
			}
			if rec.TotalLogins() != 3 { // mysql + mssql + postgres
				t.Fatalf("logins = %d, want 3", rec.TotalLogins())
			}
			creds := store.Snapshot().Creds(evstore.Query{DBMS: core.MSSQL}, 0)
			if len(creds) != 1 || creds[0].User != "sa" {
				t.Fatalf("mssql creds = %v", creds)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("incomplete capture: %d recs", len(recs))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
