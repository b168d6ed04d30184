package core

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultDeploymentMatchesPaperTable4(t *testing.T) {
	d := DefaultDeployment()
	if got := len(d.Instances); got != 278 {
		t.Fatalf("total instances = %d, want 278", got)
	}
	if got := d.LowCount(); got != 220 {
		t.Fatalf("low-interaction instances = %d, want 220", got)
	}
	if got := len(d.ByGroup(GroupMulti)); got != 200 {
		t.Fatalf("multi group = %d, want 200", got)
	}
	if got := len(d.ByGroup(GroupSingle)); got != 20 {
		t.Fatalf("single group = %d, want 20", got)
	}
	if got := len(d.ByGroup(GroupMedium)); got != 50 {
		t.Fatalf("medium group = %d, want 50", got)
	}
	if got := len(d.ByGroup(GroupHigh)); got != 8 {
		t.Fatalf("high group = %d, want 8", got)
	}
	if got := len(d.ByDBMS(Redis)); got != 75 { // 50 multi + 5 single + 20 medium
		t.Fatalf("redis instances = %d, want 75", got)
	}
	if got := len(d.ByDBMS(Postgres)); got != 75 {
		t.Fatalf("postgres instances = %d, want 75", got)
	}
	if got := len(d.ByDBMS(MongoDB)); got != 8 {
		t.Fatalf("mongodb instances = %d, want 8", got)
	}
	// Every MongoDB instance sits in a distinct region.
	regions := map[string]bool{}
	for _, in := range d.ByDBMS(MongoDB) {
		if regions[in.Region] {
			t.Fatalf("duplicate region %q", in.Region)
		}
		regions[in.Region] = true
	}
	// IDs must be unique across the deployment.
	ids := map[string]bool{}
	for _, in := range d.Instances {
		if ids[in.ID()] {
			t.Fatalf("duplicate instance ID %q", in.ID())
		}
		ids[in.ID()] = true
	}
}

func TestSessionEventFlow(t *testing.T) {
	sink := &MemSink{}
	clock := NewVirtualClock(ExperimentStart)
	src := netip.MustParseAddrPort("198.51.100.1:5555")
	info := Info{DBMS: Redis, Level: Medium}
	s := NewSession(info, src, clock, sink)
	s.Connect()
	clock.Advance(3 * time.Second)
	s.Login("sa", "123", false)
	s.Command("SET", "SET x y")
	s.Close()
	s.Close() // idempotent

	ev := sink.Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d, want 4", len(ev))
	}
	kinds := []EventKind{EventConnect, EventLogin, EventCommand, EventClose}
	for i, k := range kinds {
		if ev[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, ev[i].Kind, k)
		}
		if ev[i].Src != src || ev[i].Honeypot.DBMS != Redis {
			t.Fatalf("event %d identity = %+v", i, ev[i])
		}
	}
	if ev[0].Time.Equal(ev[1].Time) {
		t.Fatal("live session did not track the clock")
	}
	if ev[1].User != "sa" || ev[1].Pass != "123" {
		t.Fatalf("login fields = %q/%q", ev[1].User, ev[1].Pass)
	}
}

// DefaultTestSrc returns an arbitrary source address for session tests.
func DefaultTestSrc() netip.AddrPort {
	return netip.MustParseAddrPort("192.0.2.1:1000")
}

// TestRawCaptureBounded: command events whose action and raw bytes were
// cut from 1 MiB requests keep at most MaxActionLen and MaxRawCapture
// bytes, and a few KiB each alive after GC, not the requests: every
// sink that keeps events (the store's action lists, the stream
// analyzer's vocabulary) would otherwise keep the payloads too.
func TestRawCaptureBounded(t *testing.T) {
	sink := &MemSink{}
	s := NewSession(Info{DBMS: Redis}, DefaultTestSrc(), FixedClock(ExperimentStart), sink)
	const events, size = 16, 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < events; i++ {
		req := strings.Repeat(string(rune('a'+i)), size)
		s.Command(req, req)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const budget = 8 << 10 // per event: the action, the raw excerpt, slack
	if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept > events*budget {
		t.Errorf("%d command events keep %d bytes alive after GC, budget %d", events, kept, events*budget)
	}
	for _, e := range sink.Events() {
		if len(e.Command) != MaxActionLen || len(e.Raw) != MaxRawCapture {
			t.Fatalf("kept %d action and %d raw bytes, want %d and %d", len(e.Command), len(e.Raw), MaxActionLen, MaxRawCapture)
		}
	}
}

func TestServeConnRecoversPanic(t *testing.T) {
	sink := &MemSink{}
	s := NewSession(Info{DBMS: MySQL}, DefaultTestSrc(), RealClock{}, sink)
	srv, cli := net.Pipe()
	defer cli.Close()
	h := HandlerFunc(func(ctx context.Context, conn net.Conn, s *Session) error {
		s.Connect()
		panic("parser bug")
	})
	err := ServeConn(context.Background(), h, srv, s)
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	// The session must still have been closed.
	var sawClose bool
	for _, e := range sink.Events() {
		if e.Kind == EventClose {
			sawClose = true
		}
	}
	if !sawClose {
		t.Fatal("no close event after panic")
	}
}

func TestFarmServesRealTCP(t *testing.T) {
	sink := &MemSink{}
	farm := NewFarm(RealClock{}, sink, FarmOptions{
		SessionTimeout: 2 * time.Second,
		Logf:           func(string, ...any) {},
	})
	defer farm.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	echo := HandlerFunc(func(ctx context.Context, conn net.Conn, s *Session) error {
		s.Connect()
		buf := make([]byte, 16)
		n, err := conn.Read(buf)
		if err != nil {
			return nil
		}
		s.Command("ECHO", string(buf[:n]))
		_, err = conn.Write(buf[:n])
		return err
	})
	hp := &Honeypot{Info: Info{DBMS: Redis, Level: Medium}, Handler: echo}
	addr, err := farm.Listen(ctx, "127.0.0.1:0", hp)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		events := sink.Events()
		var connects, closes int
		for _, e := range events {
			switch e.Kind {
			case EventConnect:
				connects++
			case EventClose:
				closes++
			}
		}
		if connects == 1 && closes == 1 {
			// The farm recorded the genuine remote address.
			if !events[0].Src.Addr().IsLoopback() {
				t.Fatalf("src = %v, want loopback", events[0].Src)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("incomplete session events: %d connects, %d closes", connects, closes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFarmListenAfterShutdown(t *testing.T) {
	farm := NewFarm(RealClock{}, &MemSink{}, FarmOptions{Logf: func(string, ...any) {}})
	hp := &Honeypot{Info: Info{DBMS: Redis}, Handler: HandlerFunc(func(ctx context.Context, conn net.Conn, s *Session) error {
		return nil
	})}
	ctx := context.Background()
	if _, err := farm.Listen(ctx, "127.0.0.1:0", hp); err != nil {
		t.Fatal(err)
	}
	farm.Shutdown()
	// A listener registered now would never be closed; Listen must
	// refuse instead of silently leaking an accept loop.
	if _, err := farm.Listen(ctx, "127.0.0.1:0", hp); !errors.Is(err, ErrFarmClosed) {
		t.Fatalf("Listen after Shutdown = %v, want ErrFarmClosed", err)
	}
}

// flushSink records whether Flush was called after the last Record.
type flushSink struct {
	MemSink
	flushed atomic.Bool
}

func (f *flushSink) Flush() { f.flushed.Store(true) }

func TestFarmShutdownFlushesBufferedSink(t *testing.T) {
	sink := &flushSink{}
	farm := NewFarm(RealClock{}, sink, FarmOptions{Logf: func(string, ...any) {}})
	hp := &Honeypot{Info: Info{DBMS: Redis}, Handler: HandlerFunc(func(ctx context.Context, conn net.Conn, s *Session) error {
		s.Connect()
		return nil
	})}
	addr, err := farm.Listen(context.Background(), "127.0.0.1:0", hp)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	farm.Shutdown()
	if !sink.flushed.Load() {
		t.Fatal("Shutdown did not flush the buffering sink")
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("level names wrong")
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level empty")
	}
}

func TestDefaultPortUnknown(t *testing.T) {
	if DefaultPort("oracle") != 0 {
		t.Fatal("unknown DBMS port")
	}
	if DefaultPort(Elastic) != 9200 {
		t.Fatal("elastic port")
	}
}

func TestExtendedDeployment(t *testing.T) {
	d := ExtendedDeployment()
	if got := len(d.Instances); got != 288 {
		t.Fatalf("extended instances = %d, want 288", got)
	}
	if got := len(d.ByDBMS(MariaDB)); got != 5 {
		t.Fatalf("mariadb instances = %d", got)
	}
	if got := len(d.ByDBMS(CouchDB)); got != 5 {
		t.Fatalf("couchdb instances = %d", got)
	}
	if DefaultPort(CouchDB) != 5984 || DefaultPort(MariaDB) != 3306 {
		t.Fatal("extension ports")
	}
	ids := map[string]bool{}
	for _, in := range d.Instances {
		if ids[in.ID()] {
			t.Fatalf("duplicate instance ID %q", in.ID())
		}
		ids[in.ID()] = true
	}
}

func TestClockSetAndKindNames(t *testing.T) {
	c := NewVirtualClock(ExperimentStart)
	c.Set(ExperimentStart.Add(time.Hour))
	if !c.Now().Equal(ExperimentStart.Add(time.Hour)) {
		t.Fatal("Set did not move the clock")
	}
	names := map[EventKind]string{
		EventConnect: "connect", EventLogin: "login",
		EventCommand: "command", EventClose: "close",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("kind %d = %q", k, k.String())
		}
	}
	if EventKind(99).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

func TestSinkFuncAndEventCount(t *testing.T) {
	var n int
	sink := SinkFunc(func(Event) { n++ })
	s := NewSession(Info{DBMS: Redis}, DefaultTestSrc(), FixedClock(ExperimentStart), sink)
	s.Connect()
	s.Command("X", "")
	s.Close()
	if n != 3 {
		t.Fatalf("events = %d, want 3", n)
	}
	NopSink.Record(Event{}) // must not panic
}
