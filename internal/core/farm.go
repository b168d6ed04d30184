package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
	"time"
)

func timeOf(unixNano int64) time.Time { return time.Unix(0, unixNano).UTC() }

// Handler is implemented by each protocol honeypot. Handle owns conn for
// the lifetime of the session and must tolerate arbitrary hostile input:
// returning an error is fine, panicking is not (the Farm still recovers,
// but a panic indicates a parsing bug).
//
// Handle must call s.Connect() when it starts servicing the connection and
// s.Close() before returning; ServeConn enforces the Close.
type Handler interface {
	Handle(ctx context.Context, conn net.Conn, s *Session) error
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, conn net.Conn, s *Session) error

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, conn net.Conn, s *Session) error {
	return f(ctx, conn, s)
}

// Honeypot pairs an instance identity with its protocol handler.
type Honeypot struct {
	Info    Info
	Handler Handler
}

// FarmOptions tune live serving behaviour.
type FarmOptions struct {
	// SessionTimeout caps how long one client connection may live.
	// Zero means DefaultSessionTimeout.
	SessionTimeout time.Duration
	// Logf, when non-nil, receives operational diagnostics.
	Logf func(format string, args ...any)
}

// DefaultSessionTimeout is FarmOptions.SessionTimeout's default, and
// DefaultMaxConns caps concurrently served connections across a farm.
const (
	DefaultSessionTimeout = 5 * time.Minute
	DefaultMaxConns       = 1024
)

// Farm serves a set of honeypots on live listeners. It recovers per-session
// panics, enforces session deadlines, and bounds concurrency, since every
// byte it reads comes from the open Internet.
type Farm struct {
	clock Clock
	sink  Sink
	opts  FarmOptions
	sem   chan struct{}

	mu        sync.Mutex
	listeners []net.Listener
	shutdown  bool
	wg        sync.WaitGroup
}

// ErrFarmClosed is returned by Listen after Shutdown.
var ErrFarmClosed = errors.New("farm: shut down")

// NewFarm creates a Farm stamping events with clock and forwarding them to
// sink.
func NewFarm(clock Clock, sink Sink, opts FarmOptions) *Farm {
	if opts.SessionTimeout <= 0 {
		opts.SessionTimeout = DefaultSessionTimeout
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	return &Farm{
		clock: clock,
		sink:  sink,
		opts:  opts,
		sem:   make(chan struct{}, DefaultMaxConns),
	}
}

// Listen starts serving hp on addr (e.g. "0.0.0.0:6379") and returns the
// bound address, which is useful with port 0 in tests.
func (f *Farm) Listen(ctx context.Context, addr string, hp *Honeypot) (net.Addr, error) {
	f.mu.Lock()
	if f.shutdown {
		f.mu.Unlock()
		return nil, fmt.Errorf("farm: listen %s for %s: %w", addr, hp.Info.ID(), ErrFarmClosed)
	}
	f.mu.Unlock()
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("farm: listen %s for %s: %w", addr, hp.Info.ID(), err)
	}
	f.mu.Lock()
	if f.shutdown {
		// Shutdown raced us between the check and the bind; a listener
		// registered now would never be closed. Refuse instead.
		f.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("farm: listen %s for %s: %w", addr, hp.Info.ID(), ErrFarmClosed)
	}
	f.listeners = append(f.listeners, ln)
	f.mu.Unlock()

	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.acceptLoop(ctx, ln, hp)
	}()
	return ln.Addr(), nil
}

func (f *Farm) acceptLoop(ctx context.Context, ln net.Listener, hp *Honeypot) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			f.opts.Logf("farm: accept on %s: %v", ln.Addr(), err)
			continue
		}
		select {
		case f.sem <- struct{}{}:
		case <-ctx.Done():
			conn.Close()
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() { <-f.sem }()
			f.serve(ctx, conn, hp)
		}()
	}
}

func (f *Farm) serve(ctx context.Context, conn net.Conn, hp *Honeypot) {
	deadline := f.clock.Now().Add(f.opts.SessionTimeout)
	_ = conn.SetDeadline(deadline)
	src := remoteAddrPort(conn)
	s := NewSession(hp.Info, src, f.clock, f.sink)
	if err := ServeConn(ctx, hp.Handler, conn, s); err != nil {
		f.opts.Logf("farm: session %s from %s: %v", hp.Info.ID(), src, err)
	}
}

// ServeConn runs one handler over one connection with panic recovery and
// guaranteed session close + connection close. It is the single entry
// point used by both the live Farm and the simulator, so every session in
// every mode shares the same lifecycle.
func ServeConn(ctx context.Context, h Handler, conn net.Conn, s *Session) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("honeypot panic: %v", r)
		}
		s.Close()
		conn.Close()
	}()
	return h.Handle(ctx, conn, s)
}

// Shutdown closes all listeners, waits for in-flight sessions, and —
// when the sink buffers asynchronously (implements Flusher) — flushes
// it so every event the farm produced reaches the final consumers.
// After Shutdown, Listen returns ErrFarmClosed.
func (f *Farm) Shutdown() {
	f.mu.Lock()
	f.shutdown = true
	for _, ln := range f.listeners {
		ln.Close()
	}
	f.listeners = nil
	f.mu.Unlock()
	f.wg.Wait()
	if fl, ok := f.sink.(Flusher); ok {
		fl.Flush()
	}
}

func remoteAddrPort(conn net.Conn) netip.AddrPort {
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		return ap
	}
	// net.Pipe and exotic transports have opaque addresses; fall back to
	// the unspecified address so sessions still carry a valid source.
	return netip.AddrPortFrom(netip.IPv4Unspecified(), 0)
}
