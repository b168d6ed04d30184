package relay_test

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/obs"
	"decoydb/internal/relay"
)

// downSink refuses every batch.
type downSink struct{}

func (downSink) Record(core.Event)              {}
func (downSink) RecordBatch([]core.Event) error { return errors.New("store down") }

// TestCollectorFanoutPartialFailure forwards one batch to a collector
// whose fan-out has three sinks, one of them failing. The healthy sinks
// take the batch, so it is acked once and never retransmitted, and the
// collector's /metrics tell which sink failed it and which delivered it.
func TestCollectorFanoutPartialFailure(t *testing.T) {
	stats, mem := &bus.StatsSink{}, &core.MemSink{}
	coll, err := relay.NewCollector(relay.CollectorOptions{Token: "tok"}, stats, downSink{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- coll.Serve(ln) }()
	defer func() {
		coll.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	fwd, err := relay.NewForwardSink(relay.ForwardOptions{
		Addrs: []string{ln.Addr().String()}, Token: "tok", Farm: "farm-a", Block: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{
			Time: core.ExperimentStart.Add(time.Duration(i) * time.Second),
			Src:  netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}), 40000),
			Kind: core.EventLogin, User: "sa", Pass: "123",
		}
	}
	if err := fwd.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	fst := fwd.Stats()
	if fst.EventsAcked != n || fst.FramesSent != fst.FramesAcked {
		t.Fatalf("forwarder acked %d of %d events, sent %d frames for %d acks: want every event acked once",
			fst.EventsAcked, n, fst.FramesSent, fst.FramesAcked)
	}
	cst := coll.Stats()
	if cst.Events != n || cst.DupEvents != 0 || mem.Len() != n || stats.Counts().Total() != n {
		t.Fatalf("collector ingested %d (dup %d), sinks hold %d and %d: want %d once",
			cst.Events, cst.DupEvents, mem.Len(), stats.Counts().Total(), n)
	}
	if err := coll.Err(); err == nil || !strings.Contains(err.Error(), "relay_test.downSink: store down") {
		t.Fatalf("collector Err = %v, want the failing sink's error, named", err)
	}

	reg := obs.NewRegistry()
	reg.Register(obs.CollectorSource(coll))
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	metric := func(series string) float64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("series %s not in scrape:\n%s", series, body)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	frames := float64(cst.Frames)
	if frames == 0 {
		t.Fatal("collector ingested no frame")
	}
	down := `{sink="relay_test.downSink"}`
	if got := metric("decoydb_collector_sink_failed_events_total" + down); got != n {
		t.Errorf("failing sink's failed events = %v, want %d", got, n)
	}
	if got := metric("decoydb_collector_sink_events_total" + down); got != 0 {
		t.Errorf("failing sink's delivered events = %v, want 0", got)
	}
	if got := metric("decoydb_collector_sink_errors_total"); got != frames {
		t.Errorf("sink errors = %v, want one per frame, %v", got, frames)
	}
	for _, healthy := range []string{`{sink="*bus.StatsSink"}`, `{sink="*core.MemSink"}`} {
		if got := metric("decoydb_collector_sink_events_total" + healthy); got != n {
			t.Errorf("sink %s delivered %v events, want %d", healthy, got, n)
		}
		if got := metric("decoydb_collector_sink_failed_events_total" + healthy); got != 0 {
			t.Errorf("sink %s failed %v events, want 0", healthy, got)
		}
		if got := metric("decoydb_collector_sink_batches_total" + healthy); got != frames {
			t.Errorf("sink %s took %v batches, want %v", healthy, got, frames)
		}
		metric("decoydb_collector_sink_busy_seconds_total" + healthy)
	}
}
