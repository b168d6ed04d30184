package main

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"time"

	"decoydb/internal/obs"
)

// Phases of a live workload, in run order.
const (
	phaseWarmup int8 = iota
	phaseOpen
	phaseClosed
)

// sessionTimeout bounds one session from dial to close; a session that
// needs longer counts as failed.
const sessionTimeout = 10 * time.Second

// outcome is what the client saw of one session. Times are probe times.
type outcome struct {
	src    netip.AddrPort // the source the farm saw; invalid if the dial failed
	phase  int8
	due    int64 // when the open loop scheduled it; its start in a closed loop
	start  int64 // dial
	end    int64 // the client saw the close
	failed bool
}

// generator is the benchmark's load generator: one process, dialing the
// farm's listeners from each actor's loopback alias.
type generator struct {
	p     *probe
	addrs map[string]string
	plan  *plan

	mu       sync.Mutex
	outcomes []outcome
}

// run dials, converses and closes one session.
func (g *generator) run(s session, phase int8, due int64) outcome {
	o := outcome{phase: phase, due: due, start: g.p.now()}
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: aliasFor(s.actor).AsSlice()}, Timeout: sessionTimeout}
	conn, err := d.Dial("tcp", g.addrs[s.dbms])
	if err != nil {
		o.failed, o.end = true, g.p.now()
		return o
	}
	if ap := conn.LocalAddr().(*net.TCPAddr).AddrPort(); ap.IsValid() {
		o.src = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	_ = conn.SetDeadline(time.Now().Add(sessionTimeout))
	err = converse(conn, &s)
	conn.Close()
	o.end = g.p.now()
	o.failed = err != nil
	if g.p.tracing {
		g.p.span("loadgen.session", o.src, o.start, o.end, 0)
		if o.start > o.due {
			g.p.span("wait.loadgen.late", o.src, o.due, o.start, 0)
		}
	}
	return o
}

func (g *generator) keep(out []outcome) {
	g.mu.Lock()
	g.outcomes = append(g.outcomes, out...)
	g.mu.Unlock()
}

// lateness is how the open loop kept its schedule.
type lateness struct {
	ms      []float64 // how late each session started, ms
	backlog int       // most sessions due but not yet started
}

// openLoop schedules sessions at a fixed rate for d, regardless of how the
// farm keeps up, on workers concurrent connections. A session is timed
// from when it was due, so a stall also delays every session queued
// behind it.
func (g *generator) openLoop(phase int8, rate float64, d time.Duration, workers int) lateness {
	n := int64(rate*d.Seconds() + 0.5)
	interval := float64(time.Second) / rate
	base := g.plan.taken()
	t0 := g.p.now()
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all lateness
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []outcome
			var l lateness
			for {
				k, s := g.plan.take()
				if k -= base; k >= n {
					break
				}
				due := t0 + int64(float64(k)*interval)
				if wait := due - g.p.now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				now := g.p.now()
				l.ms = append(l.ms, float64(now-due)/1e6)
				l.backlog = max(l.backlog, int(float64(now-t0)/interval)-int(k))
				out = append(out, g.run(s, phase, due))
			}
			g.keep(out)
			mu.Lock()
			all.ms = append(all.ms, l.ms...)
			all.backlog = max(all.backlog, l.backlog)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// closedLoop runs clients that each start their next session as soon as
// the previous one closed, for d. It returns the probe time it started.
func (g *generator) closedLoop(phase int8, d time.Duration, clients int) int64 {
	t0 := g.p.now()
	deadline := t0 + int64(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []outcome
			for g.p.now() < deadline {
				_, s := g.plan.take()
				out = append(out, g.run(s, phase, g.p.now()))
			}
			g.keep(out)
		}()
	}
	wg.Wait()
	return t0
}

// operator queries the collector's /query the way dbreport -live does,
// asking for a fresh snapshot each time.
type operator struct {
	client *obs.Client

	rtts   []float64 // ms
	failed int
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once
}

func newOperator(addr string) *operator {
	return &operator{client: obs.NewClient(addr, 30*time.Second)}
}

// start polls once per interval in the background until stop.
func (o *operator) start(every time.Duration) {
	o.quit, o.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(o.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			o.poll()
			select {
			case <-o.quit:
				return
			case <-t.C:
			}
		}
	}()
}

// poll runs one query.
func (o *operator) poll() {
	start := time.Now()
	if _, err := o.client.Query(context.Background(), obs.QueryRequest{Creds: 10, Limit: 20, Fresh: true}); err != nil {
		o.failed++
		return
	}
	o.rtts = append(o.rtts, float64(time.Since(start))/1e6)
}

// stop lets the query in flight finish, starts no other, and waits. It
// may be called again.
func (o *operator) stop() {
	o.once.Do(func() { close(o.quit) })
	<-o.done
}
