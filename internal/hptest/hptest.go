// Package hptest provides shared helpers for exercising honeypot handlers
// in tests: an in-memory full-duplex session runner and event assertions.
package hptest

import (
	"context"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"decoydb/internal/core"
)

// DefaultSrc is the synthetic client address test sessions use.
var DefaultSrc = netip.MustParseAddrPort("203.0.113.7:40000")

// Run drives handler over one side of an in-memory connection while client
// drives the other, and returns the events the session emitted. The client
// function must close its connection (or fully consume the dialogue) to
// let the handler finish.
func Run(t *testing.T, handler core.Handler, info core.Info, client func(t *testing.T, conn net.Conn)) []core.Event {
	t.Helper()
	sink := &core.MemSink{}
	srv, cli := net.Pipe()
	clock := core.NewVirtualClock(core.ExperimentStart)
	sess := core.NewSession(info, DefaultSrc, clock, sink)

	done := make(chan error, 1)
	go func() {
		done <- core.ServeConn(context.Background(), handler, srv, sess)
	}()

	func() {
		defer cli.Close()
		client(t, cli)
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("handler returned error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not finish within 5s")
	}
	return sink.Events()
}

// EventsOfKind filters events by kind.
func EventsOfKind(events []core.Event, kind core.EventKind) []core.Event {
	var out []core.Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Commands extracts the normalised command strings in order.
func Commands(events []core.Event) []string {
	var out []string
	for _, e := range events {
		if e.Kind == core.EventCommand {
			out = append(out, e.Command)
		}
	}
	return out
}

// Logins extracts (user, pass) pairs in order.
func Logins(events []core.Event) [][2]string {
	var out [][2]string
	for _, e := range events {
		if e.Kind == core.EventLogin {
			out = append(out, [2]string{e.User, e.Pass})
		}
	}
	return out
}

// MaxBareHeaderAlloc bounds what a decoder may allocate for a header
// that declares its largest body and is then followed by EOF: the body
// must be read as it arrives, not allocated up front, or idle
// connections pin a farm's heap.
const MaxBareHeaderAlloc = 128 << 10

// CheckBareHeader runs read, which decodes a bare header followed by
// EOF, and fails t unless it returns an error after the heap grew by
// less than MaxBareHeaderAlloc bytes (runtime.MemStats.TotalAlloc).
func CheckBareHeader(t *testing.T, read func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a bare header followed by EOF decoded without error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= MaxBareHeaderAlloc {
		t.Fatalf("a bare header followed by EOF allocated %d bytes, budget %d", n, MaxBareHeaderAlloc)
	}
}
