package main

import (
	"context"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/relay"
	"decoydb/internal/wal"
)

// probe is the benchmark's only instrumentation. It times calls into the
// program from outside, through wrappers around the public interfaces the
// program is assembled from (core.Handler, the core sink interfaces,
// relay.SpoolLog, http.Handler); nothing inside the program is changed.
//
// Two things are recorded in every run: the moment the collector store
// commits each Close event, which tells whether a session's capture
// arrived and how late, and the server-side duration of each /query.
// Spans and the per-event stamps behind the waits are recorded only when
// tracing.
type probe struct {
	tracing bool
	epoch   time.Time

	mu    sync.Mutex
	spans []span

	// Close events, keyed by source address:port, at four points of the
	// capture path: recorded by a session into the farm's sink, handed to
	// the first bus sink, handed to the relay forwarder, committed by the
	// collector store. Only committed is kept when not tracing.
	recorded, delivered, forwarded, committed stampLog

	lastCommit atomic.Int64 // probe time of the latest store commit

	queryMu sync.Mutex
	queries []float64 // server-side /query durations, ms
}

func newProbe(tracing bool) *probe {
	return &probe{tracing: tracing, epoch: time.Now()}
}

// now is the probe's monotonic clock in nanoseconds since the epoch.
func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// wall converts a probe time to wall-clock nanoseconds, the time base
// the farm and collector processes share; local converts back.
func (p *probe) wall(t int64) int64  { return p.epoch.UnixNano() + t }
func (p *probe) local(w int64) int64 { return w - p.epoch.UnixNano() }

// span records one timed call. trace is the session's source address and
// port, or the zero value for batch deliveries, which are roots.
func (p *probe) span(name string, trace netip.AddrPort, start, end int64, events int) {
	p.mu.Lock()
	p.spans = append(p.spans, span{Name: name, Trace: trace, Start: start, End: end, Events: events})
	p.mu.Unlock()
}

// takeSpans returns the recorded spans with IDs and parents assigned.
func (p *probe) takeSpans() []span {
	p.mu.Lock()
	defer p.mu.Unlock()
	return linkSpans(p.spans)
}

// stamp is one Close event seen at one point of the capture path.
type stamp struct {
	src netip.AddrPort
	at  int64
	ref int // caller's index (the generator's session), -1 when unused
}

// stampLog collects stamps from concurrent deliveries.
type stampLog struct {
	mu sync.Mutex
	s  []stamp
}

// addCloses stamps every Close event of a batch with one time.
func (l *stampLog) addCloses(events []core.Event, at int64) {
	l.mu.Lock()
	for i := range events {
		if events[i].Kind == core.EventClose {
			l.s = append(l.s, stamp{src: events[i].Src, at: at, ref: -1})
		}
	}
	l.mu.Unlock()
}

func (l *stampLog) take() []stamp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stamp(nil), l.s...)
}

// batchHook observes a delivery batch with the probe times around it.
type batchHook func(events []core.Event, start, end int64)

// stampStart stamps a batch's Close events when the delivery starts. It
// is nil, and so costs nothing, when not tracing.
func (p *probe) stampStart(l *stampLog) batchHook {
	if !p.tracing {
		return nil
	}
	return func(events []core.Event, start, _ int64) { l.addCloses(events, start) }
}

// stampCommit stamps a batch's Close events when the store has committed
// them, in every run.
func (p *probe) stampCommit(events []core.Event, _, end int64) {
	p.committed.addCloses(events, end)
	p.lastCommit.Store(end)
}

// The sink wrappers time deliveries into one sink. wrapSink returns a
// wrapper with exactly the optional interfaces of what it wraps: the bus
// picks batch delivery by asserting core.BatchSink, the collector journals
// provenance only through core.TaggedBatchSink, and Farm.Shutdown flushes
// only a core.Flusher — a wrapper that hid one of these, or added one,
// would make the benchmark measure a different program.

// sinkWrap times Record.
type sinkWrap struct {
	name string
	p    *probe
	s    core.Sink
	hook batchHook
}

func (w *sinkWrap) Record(e core.Event) {
	if !w.p.tracing && w.hook == nil {
		w.s.Record(e)
		return
	}
	start := w.p.now()
	w.s.Record(e)
	end := w.p.now()
	if w.hook != nil {
		w.hook([]core.Event{e}, start, end)
	}
	if w.p.tracing {
		w.p.span(w.name, e.Src, start, end, 1)
	}
}

// batched times one batch delivery made through do.
func (w *sinkWrap) batched(events []core.Event, do func() error) error {
	if !w.p.tracing && w.hook == nil {
		return do()
	}
	start := w.p.now()
	err := do()
	end := w.p.now()
	if w.hook != nil {
		w.hook(events, start, end)
	}
	if w.p.tracing {
		w.p.span(w.name, netip.AddrPort{}, start, end, len(events))
	}
	return err
}

type flushWrap struct {
	*sinkWrap
	f core.Flusher
}

func (w *flushWrap) Flush() { w.f.Flush() }

type batchWrap struct {
	*sinkWrap
	b core.BatchSink
}

func (w *batchWrap) RecordBatch(events []core.Event) error {
	return w.batched(events, func() error { return w.b.RecordBatch(events) })
}

type batchFlushWrap struct {
	*batchWrap
	f core.Flusher
}

func (w *batchFlushWrap) Flush() { w.f.Flush() }

type taggedWrap struct {
	*batchWrap
	t core.TaggedBatchSink
}

func (w *taggedWrap) RecordBatchTagged(events []core.Event, tag []byte) error {
	return w.batched(events, func() error { return w.t.RecordBatchTagged(events, tag) })
}

type taggedFlushWrap struct {
	*taggedWrap
	f core.Flusher
}

func (w *taggedFlushWrap) Flush() { w.f.Flush() }

// wrapSink wraps s under the layer name. hook, when non-nil, observes
// every delivery (traced or not).
func (p *probe) wrapSink(name string, s core.Sink, hook batchHook) core.Sink {
	base := &sinkWrap{name: name, p: p, s: s, hook: hook}
	f, flushes := s.(core.Flusher)
	if t, ok := s.(core.TaggedBatchSink); ok {
		w := &taggedWrap{batchWrap: &batchWrap{sinkWrap: base, b: t}, t: t}
		if flushes {
			return &taggedFlushWrap{taggedWrap: w, f: f}
		}
		return w
	}
	if b, ok := s.(core.BatchSink); ok {
		w := &batchWrap{sinkWrap: base, b: b}
		if flushes {
			return &batchFlushWrap{batchWrap: w, f: f}
		}
		return w
	}
	if flushes {
		return &flushWrap{sinkWrap: base, f: f}
	}
	return base
}

// handlerWrap times one honeypot session inside core.Farm.
type handlerWrap struct {
	name string
	p    *probe
	h    core.Handler
}

func (w handlerWrap) Handle(ctx context.Context, conn net.Conn, s *core.Session) error {
	if !w.p.tracing {
		return w.h.Handle(ctx, conn, s)
	}
	start := w.p.now()
	err := w.h.Handle(ctx, conn, s)
	w.p.span(w.name, s.Src, start, w.p.now(), 0)
	return err
}

func (p *probe) wrapHandler(name string, h core.Handler) core.Handler {
	return handlerWrap{name: name, p: p, h: h}
}

// queryWrap times the collector's /query handler on the server side.
type queryWrap struct {
	name string
	p    *probe
	h    http.Handler
}

func (w queryWrap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := w.p.now()
	w.h.ServeHTTP(rw, r)
	end := w.p.now()
	w.p.queryMu.Lock()
	w.p.queries = append(w.p.queries, float64(end-start)/1e6)
	w.p.queryMu.Unlock()
	if w.p.tracing {
		w.p.span(w.name, netip.AddrPort{}, start, end, 0)
	}
}

func (p *probe) wrapHTTP(name string, h http.Handler) http.Handler {
	return queryWrap{name: name, p: p, h: h}
}

func (p *probe) queryTimes() []float64 {
	p.queryMu.Lock()
	defer p.queryMu.Unlock()
	return append([]float64(nil), p.queries...)
}

// spoolWrap times the relay forwarder's journal appends; the forwarder
// reaches its spool only through relay.SpoolLog.
type spoolWrap struct {
	p *probe
	l *wal.Log
}

var _ relay.SpoolLog = spoolWrap{}

func (w spoolWrap) Append(events []core.Event, tag []byte) (uint64, error) {
	if !w.p.tracing {
		return w.l.Append(events, tag)
	}
	start := w.p.now()
	seq, err := w.l.Append(events, tag)
	w.p.span("wal.spool", netip.AddrPort{}, start, w.p.now(), len(events))
	return seq, err
}

func (w spoolWrap) AppendOwner(seq uint64, addr string) error { return w.l.AppendOwner(seq, addr) }
func (w spoolWrap) Owners() map[uint64]string                 { return w.l.Owners() }
func (w spoolWrap) Replay(from uint64, fn func(uint64, []byte, []core.Event) error) error {
	return w.l.Replay(from, fn)
}
func (w spoolWrap) Compact(seq uint64) (int, error) { return w.l.Compact(seq) }
func (w spoolWrap) Mark() uint64                    { return w.l.Mark() }
func (w spoolWrap) LastSeq() uint64                 { return w.l.LastSeq() }
