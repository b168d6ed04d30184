package main

import (
	"net"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/obs"
	"decoydb/internal/pipeline"
	"decoydb/internal/relay"
	"decoydb/internal/stream"
	"decoydb/internal/wal"
)

// Sinks with every combination of the optional interfaces.
type (
	plainSink  struct{}
	flushSink  struct{ plainSink }
	batchSink  struct{ plainSink }
	batchFlush struct{ batchSink }
	tagged     struct{ batchSink }
	taggedFl   struct{ tagged }
)

func (plainSink) Record(core.Event)                         {}
func (flushSink) Flush()                                    {}
func (batchSink) RecordBatch([]core.Event) error            { return nil }
func (batchFlush) Flush()                                   {}
func (tagged) RecordBatchTagged([]core.Event, []byte) error { return nil }
func (taggedFl) Flush()                                     {}

// capabilities lists which optional sink interfaces s implements.
func capabilities(s core.Sink) [3]bool {
	_, b := s.(core.BatchSink)
	_, t := s.(core.TaggedBatchSink)
	_, f := s.(core.Flusher)
	return [3]bool{b, t, f}
}

// TestWrapperInterfaceParity checks that a timing wrapper exposes exactly
// the optional interfaces of what it wraps, for every combination and for
// each sink the benchmark wraps.
func TestWrapperInterfaceParity(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lw, err := pipeline.NewLogWriter(filepath.Join(dir, "logs"))
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	fwd, err := relay.NewForwardSink(relay.ForwardOptions{Addrs: []string{"127.0.0.1:1"}, Token: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	b := bus.New(bus.Options{}, core.NopSink)
	defer b.Close()

	sinks := map[string]core.Sink{
		"plain": plainSink{}, "flush": flushSink{}, "batch": batchSink{},
		"batch+flush": batchFlush{}, "tagged": tagged{}, "tagged+flush": taggedFl{},
		"bus":        b,
		"log writer": lw,
		"stats":      &bus.StatsSink{},
		"journal":    wal.NewSink(l),
		"forwarder":  fwd,
		"trace ring": obs.NewTraceRing(obs.TraceOptions{}),
		"store":      evstore.NewSharded(time.Now(), 20, nil, 1),
		"analyzer":   stream.New(stream.Options{}),
	}
	for _, tracing := range []bool{false, true} {
		p := newProbe(tracing)
		for name, s := range sinks {
			w := p.wrapSink(name, s, p.stampCommit)
			if got, want := capabilities(w), capabilities(s); got != want {
				t.Errorf("tracing=%v %s: wrapper has [batch tagged flush] = %v, wrapped sink %v", tracing, name, got, want)
			}
		}
	}
	var _ relay.SpoolLog = spoolWrap{}
}

// TestWrappedStoreRebuildsFarmMarks runs relayed batches through a
// collector whose store is wrapped for timing, then reopens the journal:
// the farm's dedup mark must come back from the provenance tags, which
// only reach the journal if the wrapper kept the tagged path.
func TestWrappedStoreRebuildsFarmMarks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "collector")
	start := windowStart(time.Now())
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store := evstore.NewSharded(start, core.ExperimentDays, nil, 0)
	if _, err := store.AttachWAL(l, nil); err != nil {
		t.Fatal(err)
	}
	p := newProbe(true)
	coll, err := relay.NewCollector(relay.CollectorOptions{Token: "t"}, p.wrapSink("evstore", store, p.stampCommit))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- coll.Serve(ln) }()
	fwd, err := relay.NewForwardSink(relay.ForwardOptions{Addrs: []string{ln.Addr().String()}, Token: "t", Farm: "farm-a", FrameEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("127.100.0.1:4000")
	var events []core.Event
	for i := 0; i < 10; i++ {
		events = append(events, core.Event{Time: time.Now(), Src: src, Kind: core.EventClose, Honeypot: core.Info{DBMS: core.MySQL}})
	}
	if err := fwd.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	want := coll.Stats()
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Events != uint64(len(events)) || len(want.Farms) != 1 {
		t.Fatalf("collector ingested %d events from %d farms, want %d from 1", want.Events, len(want.Farms), len(events))
	}
	if got := len(p.committed.take()); got != len(events) {
		t.Errorf("probe stamped %d commits, want %d", got, len(events))
	}

	l2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	marks := map[string]relay.FarmMark{}
	reopened := evstore.NewSharded(start, core.ExperimentDays, nil, 0)
	replayed, err := reopened.AttachWAL(l2, func(tag []byte) {
		if farm, epoch, seq, ok := relay.DecodeSourceTag(tag); ok {
			marks[farm] = relay.FarmMark{Epoch: epoch, LastSeq: seq}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != len(events) {
		t.Errorf("replayed %d events, want %d", replayed, len(events))
	}
	got, ok := marks["farm-a"]
	if !ok || got.Epoch != want.Farms[0].Epoch || got.LastSeq != want.Farms[0].LastSeq {
		t.Errorf("rebuilt mark %+v (present %v), want epoch %#x seq %d", got, ok, want.Farms[0].Epoch, want.Farms[0].LastSeq)
	}
}
