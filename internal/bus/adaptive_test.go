package bus_test

import (
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/core"
)

// aevt builds an event from addr at t seconds past the experiment start.
func aevt(addr netip.Addr, t int) core.Event {
	return core.Event{
		Time: core.ExperimentStart.Add(time.Duration(t) * time.Second),
		Src:  netip.AddrPortFrom(addr, 1024),
		Honeypot: core.Info{
			DBMS: core.MSSQL, Level: core.Low, Port: 1433,
			Config: core.ConfigDefault, Group: core.GroupMulti, VM: "vm",
		},
		Kind: core.EventLogin,
		User: "sa", Pass: "pw",
	}
}

var (
	flooder = netip.AddrFrom4([4]byte{203, 0, 113, 1})
	scout   = netip.AddrFrom4([4]byte{203, 0, 113, 2})
)

// parkWorker records one event and waits until the shard worker has
// picked it up and is blocked inside the gated sink. From then on the
// queue depth is a deterministic function of subsequent Record calls.
func parkWorker(t *testing.T, b *bus.Bus, gate *gatedSink) {
	t.Helper()
	b.Record(aevt(flooder, 0))
	for gate.n.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveShedsFloodKeepsScout walks the policy through one full
// episode: fill to the high-water mark, shed the over-budget flooder,
// admit the in-budget scout, and recover below the low-water mark.
// Admission checks the queue depth before the incoming event, so with
// HighWater=4 the first four queued records are pre-shedding.
func TestAdaptiveShedsFloodKeepsScout(t *testing.T) {
	gate := &gatedSink{release: make(chan struct{})}
	b := bus.New(bus.Options{
		Shards: 1, QueueSize: 8, BatchSize: 1,
		Policy:    bus.Adaptive,
		HighWater: 4, LowWater: 2,
		SourceBudget: 3, SourceWindow: time.Hour,
	}, gate)

	parkWorker(t, b, gate)

	for i := 1; i <= 4; i++ {
		b.Record(aevt(flooder, i)) // depth 0..3 < HighWater: admitted free
	}
	// Depth is now 4 == HighWater: shedding engages on the next record
	// and the flooder starts spending its 3-event window budget.
	for i := 5; i <= 7; i++ {
		b.Record(aevt(flooder, i)) // within budget
	}
	for i := 8; i <= 12; i++ {
		b.Record(aevt(flooder, i)) // over budget: shed
	}
	// The scout has its own untouched budget and loses nothing.
	b.Record(aevt(scout, 13))

	st := b.Stats()
	if st.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", st.Dropped)
	}
	if len(st.Shedders) != 1 || st.Shedders[0].Addr != flooder || st.Shedders[0].Shed != 5 {
		t.Fatalf("shedders = %+v, want [{%s 5}]", st.Shedders, flooder)
	}
	if st.ShedUnattributed != 0 {
		t.Fatalf("unattributed = %d, want 0", st.ShedUnattributed)
	}
	if s := st.String(); !strings.Contains(s, "adaptive") || !strings.Contains(s, "shed[") {
		t.Fatalf("stats line %q misses adaptive/shed markers", s)
	}

	close(gate.release)
	b.Flush()

	// Fully drained: the shard recovered below the low-water mark, so
	// the flooder — despite an exhausted window budget — is back to
	// lossless Block behaviour.
	b.Record(aevt(flooder, 14))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.Dropped != 5 {
		t.Fatalf("post-recovery dropped = %d, want 5", st.Dropped)
	}
	// 1 parked + 4 below high water + 3 budget + 1 scout + 1 recovered.
	if got := gate.n.Load(); got != 10 {
		t.Fatalf("sink saw %d events, want 10", got)
	}
}

// TestAdaptiveWindowRoll verifies the per-source budget renews once
// event time advances past the window while shedding stays engaged.
func TestAdaptiveWindowRoll(t *testing.T) {
	gate := &gatedSink{release: make(chan struct{})}
	b := bus.New(bus.Options{
		Shards: 1, QueueSize: 16, BatchSize: 1,
		Policy:    bus.Adaptive,
		HighWater: 2, LowWater: 1,
		SourceBudget: 2, SourceWindow: time.Minute,
	}, gate)

	parkWorker(t, b, gate)
	b.Record(aevt(flooder, 1))  // depth 0: pre-shedding
	b.Record(aevt(flooder, 2))  // depth 1: pre-shedding
	b.Record(aevt(flooder, 3))  // depth 2 == HighWater: window opens at t=3, budget 1/2
	b.Record(aevt(flooder, 4))  // budget 2/2
	b.Record(aevt(flooder, 5))  // over budget: shed
	b.Record(aevt(flooder, 70)) // 67s past window start: budget renews, 1/2
	b.Record(aevt(flooder, 71)) // budget 2/2
	b.Record(aevt(flooder, 72)) // over budget: shed

	st := b.Stats()
	if st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (one per window)", st.Dropped)
	}
	close(gate.release)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveLRUEviction bounds the tracking table at MaxSources and
// checks that an evicted source's shed count stays in the books as
// unattributed rather than vanishing.
func TestAdaptiveLRUEviction(t *testing.T) {
	gate := &gatedSink{release: make(chan struct{})}
	b := bus.New(bus.Options{
		Shards: 1, QueueSize: 64, BatchSize: 1,
		Policy:    bus.Adaptive,
		HighWater: 1, LowWater: 0,
		SourceBudget: 1, SourceWindow: time.Hour,
		MaxSources: 2,
	}, gate)

	parkWorker(t, b, gate)
	srcs := []netip.Addr{
		netip.AddrFrom4([4]byte{203, 0, 113, 31}),
		netip.AddrFrom4([4]byte{203, 0, 113, 32}),
		netip.AddrFrom4([4]byte{203, 0, 113, 33}),
	}
	b.Record(aevt(srcs[0], 1)) // depth 0 < HighWater=1: pre-shedding
	b.Record(aevt(srcs[0], 2)) // shedding; budget 1/1
	b.Record(aevt(srcs[0], 3)) // over budget: shed=1 on srcs[0]
	b.Record(aevt(srcs[1], 4)) // budget 1/1
	b.Record(aevt(srcs[1], 5)) // shed=1 on srcs[1]
	// A third source overflows MaxSources=2 and evicts the least
	// recently used entry — srcs[0] — along with its shed count.
	b.Record(aevt(srcs[2], 6)) // budget 1/1
	b.Record(aevt(srcs[2], 7)) // shed=1 on srcs[2]

	st := b.Stats()
	if st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
	var attributed uint64
	for _, sd := range st.Shedders {
		if sd.Addr == srcs[0] {
			t.Fatalf("evicted source %s still attributed", sd.Addr)
		}
		attributed += sd.Shed
	}
	if attributed != 2 || st.ShedUnattributed != 1 {
		t.Fatalf("attributed=%d unattributed=%d, want 2/1", attributed, st.ShedUnattributed)
	}

	close(gate.release)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveConcurrentRace is the -race exercise: a flooding source
// and several background producers hammer an adaptive bus over a slow
// sink while Stats and Flush run concurrently. Background sources stay
// inside their window budget, so they must lose nothing even while the
// flooder is being shed.
func TestAdaptiveConcurrentRace(t *testing.T) {
	const (
		backgrounds   = 4
		perBackground = 50 // == SourceBudget: never over budget
		floodEvents   = 4000
	)
	sink := &countingSlowSink{delay: 200 * time.Microsecond}
	b := bus.New(bus.Options{
		Shards: 2, QueueSize: 32, BatchSize: 8,
		Policy:    bus.Adaptive,
		HighWater: 8, LowWater: 2,
		SourceBudget: perBackground, SourceWindow: time.Hour,
	}, sink)

	var producers sync.WaitGroup
	producers.Add(1)
	go func() {
		defer producers.Done()
		for i := 0; i < floodEvents; i++ {
			b.Record(aevt(flooder, i%3000)) // all inside one window
		}
	}()
	for k := 0; k < backgrounds; k++ {
		producers.Add(1)
		go func(k int) {
			defer producers.Done()
			addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(50 + k)})
			for i := 0; i < perBackground; i++ {
				b.Record(aevt(addr, i))
			}
		}(k)
	}

	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.Stats().String()
				b.Flush()
			}
		}
	}()

	producers.Wait()
	close(stop)
	observer.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	st := b.Stats()
	const produced = floodEvents + backgrounds*perBackground
	if st.Enqueued+st.Dropped != produced {
		t.Fatalf("enqueued %d + dropped %d != produced %d", st.Enqueued, st.Dropped, produced)
	}
	if st.Delivered != st.Enqueued {
		t.Fatalf("delivered %d != enqueued %d after Close", st.Delivered, st.Enqueued)
	}
	for k := 0; k < backgrounds; k++ {
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(50 + k)})
		if got := sink.perSrc(addr); got != perBackground {
			t.Fatalf("background %s delivered %d events, want %d (zero loss)", addr, got, perBackground)
		}
		for _, sd := range st.Shedders {
			if sd.Addr == addr {
				t.Fatalf("background %s appears in shedders: %+v", addr, sd)
			}
		}
	}
	if st.Dropped > 0 {
		if len(st.Shedders) != 1 || st.Shedders[0].Addr != flooder || st.Shedders[0].Shed != st.Dropped {
			t.Fatalf("shedders = %+v, want all %d drops on %s", st.Shedders, st.Dropped, flooder)
		}
	}
}

// countingSlowSink delays every batch and counts delivered events per
// source, so tests can assert exact per-source delivery.
type countingSlowSink struct {
	delay time.Duration
	mu    sync.Mutex
	per   map[netip.Addr]int
}

func (s *countingSlowSink) Record(e core.Event) {
	_ = s.RecordBatch([]core.Event{e})
}

func (s *countingSlowSink) RecordBatch(events []core.Event) error {
	time.Sleep(s.delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.per == nil {
		s.per = make(map[netip.Addr]int)
	}
	for _, e := range events {
		s.per[e.Src.Addr()]++
	}
	return nil
}

func (s *countingSlowSink) perSrc(a netip.Addr) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.per[a]
}
