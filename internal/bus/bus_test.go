package bus_test

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/pipeline"
)

// evt builds a valid low-interaction login event from source ip index i,
// attempt j — parseable by the pipeline round trip.
func evt(i, j int) core.Event {
	addr := netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})
	return core.Event{
		Time: core.ExperimentStart.Add(time.Duration(j) * time.Second),
		Src:  netip.AddrPortFrom(addr, uint16(1024+j%60000)),
		Honeypot: core.Info{
			DBMS: core.MSSQL, Level: core.Low, Port: 1433,
			Config: core.ConfigDefault, Group: core.GroupMulti, VM: "vm",
		},
		Kind: core.EventLogin,
		User: "sa", Pass: fmt.Sprintf("pw%d", j),
	}
}

func TestDeliversToPlainAndBatchSinks(t *testing.T) {
	mem := &core.MemSink{} // plain core.Sink: per-event fallback
	store := evstore.New(core.ExperimentStart, 20, nil)
	b := bus.New(bus.Options{Shards: 4, QueueSize: 64, BatchSize: 8}, mem, store)

	const n = 500
	for j := 0; j < n; j++ {
		b.Record(evt(j%17, j))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != n {
		t.Fatalf("plain sink got %d events, want %d", mem.Len(), n)
	}
	if store.Events() != n {
		t.Fatalf("batch sink got %d events, want %d", store.Events(), n)
	}
	st := b.Stats()
	if st.Enqueued != n || st.Delivered != n || st.Dropped != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Sinks) != 2 {
		t.Fatalf("sink stats = %d entries", len(st.Sinks))
	}
	for _, sk := range st.Sinks {
		if sk.Events != n || sk.Batches == 0 {
			t.Fatalf("sink %s delivered %d events in %d batches", sk.Name, sk.Events, sk.Batches)
		}
	}
}

func TestPerSourceOrderPreserved(t *testing.T) {
	// All events from one source must arrive in Record order even when
	// other sources are being recorded concurrently from other
	// goroutines: same address -> same shard -> same worker.
	store := evstore.New(core.ExperimentStart, 20, nil)
	b := bus.New(bus.Options{Shards: 8, QueueSize: 32, BatchSize: 4}, store)

	const perSrc = 300
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSrc; j++ {
				e := evt(i, j)
				e.Kind = core.EventCommand
				e.Command = fmt.Sprintf("CMD-%04d", j)
				e.Honeypot.Level = core.Medium
				b.Record(e)
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rec := store.Snapshot().IP(netip.AddrFrom4([4]byte{198, 51, 0, byte(i)}))
		if rec == nil {
			t.Fatalf("source %d missing", i)
		}
		for _, act := range rec.Per {
			for k, a := range act.Actions {
				if want := fmt.Sprintf("CMD-%04d", k); a.Name != want {
					t.Fatalf("source %d action %d = %q, want %q", i, k, a.Name, want)
				}
			}
		}
	}
}

func TestFlushDrains(t *testing.T) {
	slow := &slowSink{delay: time.Millisecond}
	b := bus.New(bus.Options{Shards: 2, QueueSize: 1024, BatchSize: 32}, slow)
	defer b.Close()
	const n = 200
	for j := 0; j < n; j++ {
		b.Record(evt(j, j))
	}
	b.Flush()
	if got := slow.n.Load(); got != n {
		t.Fatalf("after Flush sink has %d events, want %d", got, n)
	}
	st := b.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending after flush = %d", st.Pending)
	}
}

func TestRecordAfterCloseCountsDropped(t *testing.T) {
	mem := &core.MemSink{}
	b := bus.New(bus.Options{Shards: 1}, mem)
	b.Record(evt(1, 1))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b.Record(evt(1, 2))
	st := b.Stats()
	if st.Dropped != 1 || mem.Len() != 1 {
		t.Fatalf("dropped=%d delivered=%d", st.Dropped, mem.Len())
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestSinkErrorSurfaced(t *testing.T) {
	boom := errors.New("disk full")
	b := bus.New(bus.Options{Shards: 1}, failingSink{err: boom})
	b.Record(evt(1, 1))
	err := b.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want %v", err, boom)
	}
	st := b.Stats()
	if st.Sinks[0].Errors == 0 {
		t.Fatal("sink error not counted")
	}
}

// TestConcurrentIngestBlockNoLoss is the concurrency contract test:
// many producer goroutines through the bus into a LogWriter and an
// evstore at once, block policy, zero loss — and the log files round-
// trip through the conversion pipeline with every event intact.
func TestConcurrentIngestBlockNoLoss(t *testing.T) {
	dir := t.TempDir()
	lw, err := pipeline.NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := evstore.New(core.ExperimentStart, 20, geoip.Default())
	// Tiny queues force the backpressure path constantly.
	b := bus.New(bus.Options{Shards: 4, QueueSize: 16, BatchSize: 8, Policy: bus.Block}, lw, store)

	const producers = 16
	const perProducer = 500
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				b.Record(evt(i, j))
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	const total = producers * perProducer
	st := b.Stats()
	if st.Enqueued != total || st.Delivered != total || st.Dropped != 0 {
		t.Fatalf("block-mode loss: %+v", st)
	}
	if store.Events() != total {
		t.Fatalf("store has %d events, want %d", store.Events(), total)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := pipeline.Load(dir, core.ExperimentStart, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Events() != total {
		t.Fatalf("log round trip has %d events, want %d", reloaded.Events(), total)
	}
	if got := reloaded.Snapshot().Logins(evstore.Query{DBMS: core.MSSQL}); got != total {
		t.Fatalf("logins after round trip = %d, want %d", got, total)
	}
}

// TestConcurrentIngestDropAccounting floods a drop-mode bus feeding a
// deliberately slow sink and verifies the books balance exactly:
// enqueued + dropped == produced, delivered == enqueued, and the sink
// saw every delivered event.
func TestConcurrentIngestDropAccounting(t *testing.T) {
	slow := &slowSink{delay: 2 * time.Millisecond}
	b := bus.New(bus.Options{Shards: 2, QueueSize: 8, BatchSize: 8, Policy: bus.Drop}, slow)

	const producers = 8
	const perProducer = 2000
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				b.Record(evt(i, j))
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	const produced = producers * perProducer
	if st.Enqueued+st.Dropped != produced {
		t.Fatalf("enqueued %d + dropped %d != produced %d", st.Enqueued, st.Dropped, produced)
	}
	if st.Delivered != st.Enqueued {
		t.Fatalf("delivered %d != enqueued %d after Close", st.Delivered, st.Enqueued)
	}
	if got := slow.n.Load(); uint64(got) != st.Delivered {
		t.Fatalf("sink saw %d events, stats say %d delivered", got, st.Delivered)
	}
	if st.Dropped == 0 {
		t.Fatal("flood against slow sink dropped nothing; backpressure untested")
	}
}

func TestBatchHistogramAndMeanBatch(t *testing.T) {
	gate := &gatedSink{release: make(chan struct{})}
	b := bus.New(bus.Options{Shards: 1, QueueSize: 64, BatchSize: 16}, gate)
	// First delivery takes the first event alone; the rest queue up
	// behind the gate and arrive in larger batches.
	b.Record(evt(1, 0))
	for gate.n.Load() == 0 { // wait until the worker is inside the sink
		time.Sleep(time.Millisecond)
	}
	for j := 1; j <= 32; j++ {
		b.Record(evt(1, j))
	}
	close(gate.release)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Delivered != 33 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
	var batches uint64
	for _, n := range st.BatchHist {
		batches += n
	}
	if batches < 2 {
		t.Fatalf("batches = %d, want >= 2", batches)
	}
	if st.BatchHist[0] == 0 {
		t.Fatal("no single-event batch recorded")
	}
	if mb := st.MeanBatch(); mb <= 1 || mb > 16 {
		t.Fatalf("mean batch = %v", mb)
	}
	if st.String() == "" || st.Policy.String() != "block" {
		t.Fatal("stats rendering")
	}
}

func TestStatsSinkCounts(t *testing.T) {
	s := &bus.StatsSink{}
	b := bus.New(bus.Options{Shards: 2}, s)
	e := evt(1, 1)
	e.OK = true
	b.Record(e)
	ec := evt(1, 2)
	ec.Kind = core.EventConnect
	b.Record(ec)
	cmd := evt(1, 3)
	cmd.Kind = core.EventCommand
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	s.RecordBatch([]core.Event{cmd}) // direct batch path
	c := s.Counts()
	if c.Total() != 3 || c.Logins != 1 || c.LoginOK != 1 || c.Connects != 1 || c.Commands != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestPolicyString(t *testing.T) {
	if bus.Block.String() != "block" || bus.Drop.String() != "drop" || bus.Adaptive.String() != "adaptive" {
		t.Fatal("policy names")
	}
	if bus.Policy(7).String() == "" {
		t.Fatal("unknown policy empty")
	}
	for _, name := range []string{"block", "drop", "adaptive"} {
		p, err := bus.ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := bus.ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// Regression: two sinks of the same Go type used to share one %T-derived
// name, making their Stats.Sinks entries indistinguishable; and sink
// stats were re-sorted by name, losing registration order. Duplicates
// now get a 1-based index suffix and the order matches registration.
func TestDuplicateSinkNames(t *testing.T) {
	s1 := evstore.New(core.ExperimentStart, 20, nil)
	s2 := evstore.New(core.ExperimentStart, 20, nil)
	mem := &core.MemSink{}
	// Register the stores before the MemSink: a by-name sort would move
	// "*core.MemSink" ahead of "*evstore.Store#…".
	b := bus.New(bus.Options{Shards: 1}, s1, s2, mem)
	b.Record(evt(1, 1))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	want := []string{"*evstore.Store#1", "*evstore.Store#2", "*core.MemSink"}
	if len(st.Sinks) != len(want) {
		t.Fatalf("sink stats = %d entries, want %d", len(st.Sinks), len(want))
	}
	for i, w := range want {
		if st.Sinks[i].Name != w {
			t.Fatalf("sink %d named %q, want %q (registration order, duplicates suffixed)", i, st.Sinks[i].Name, w)
		}
	}
	for _, sk := range st.Sinks[:2] {
		if sk.Events != 1 {
			t.Fatalf("sink %s delivered %d events, want 1", sk.Name, sk.Events)
		}
	}
}

// Regression: events in a batch whose RecordBatch errored were counted
// as delivered. They must land in FailedEvents instead.
func TestFailedBatchNotCountedDelivered(t *testing.T) {
	boom := errors.New("disk full")
	b := bus.New(bus.Options{Shards: 1, BatchSize: 4}, failingSink{err: boom})
	for j := 0; j < 3; j++ {
		b.Record(evt(1, j))
	}
	if err := b.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want %v", err, boom)
	}
	sk := b.Stats().Sinks[0]
	if sk.Events != 0 {
		t.Fatalf("sink Events = %d, want 0: rejected events reported as delivered", sk.Events)
	}
	if sk.FailedEvents != 3 {
		t.Fatalf("sink FailedEvents = %d, want 3", sk.FailedEvents)
	}
	if sk.Errors == 0 {
		t.Fatal("sink errors not counted")
	}
	if s := b.Stats().String(); !strings.Contains(s, "failed=3") {
		t.Fatalf("stats line %q does not surface failed events", s)
	}
}

// Regression: StatsSink counted out-of-range event kinds in a private
// counter that no snapshot exposed — invisible in Total and the log
// line. Other must be surfaced everywhere.
func TestStatsSinkOtherSurfaced(t *testing.T) {
	s := &bus.StatsSink{}
	good := evt(1, 1)
	bad := evt(1, 2)
	bad.Kind = core.EventKind(9)
	s.RecordBatch([]core.Event{good, bad})
	c := s.Counts()
	if c.Other != 1 {
		t.Fatalf("Other = %d, want 1", c.Other)
	}
	if c.Total() != 2 {
		t.Fatalf("Total = %d, want 2 (out-of-range kind dropped from the sum)", c.Total())
	}
	if !strings.Contains(c.String(), "other=1") {
		t.Fatalf("log line %q hides the out-of-range count", c.String())
	}
}

// slowSink delays every delivery; implements only core.Sink so the bus
// exercises the per-event fallback under load.
type slowSink struct {
	delay time.Duration
	n     atomic.Int64
}

func (s *slowSink) Record(core.Event) {
	time.Sleep(s.delay)
	s.n.Add(1)
}

// gatedSink blocks its first delivery until released, letting tests
// build up a backlog deterministically.
type gatedSink struct {
	release chan struct{}
	n       atomic.Int64
	once    sync.Once
}

func (g *gatedSink) Record(core.Event) {
	g.n.Add(1)
	g.once.Do(func() { <-g.release })
}

type failingSink struct{ err error }

func (f failingSink) Record(core.Event)              {}
func (f failingSink) RecordBatch([]core.Event) error { return f.err }
