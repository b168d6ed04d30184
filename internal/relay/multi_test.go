package relay

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wire"
)

// --- rendezvous hashing -------------------------------------------------

// farmNames generates n distinct synthetic farm names.
func farmNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("farm-%04d", i)
	}
	return names
}

// TestRankEndpointsDeterminism pins the ranking for fixed inputs: the
// score is a documented FNV-1a construction, so every process — today's
// and next release's — must produce exactly this order, or farms and
// operator tooling would disagree about who forwards where.
func TestRankEndpointsDeterminism(t *testing.T) {
	addrs := []string{"collector-a:9000", "collector-b:9000", "collector-c:9000", "collector-d:9000"}
	want := map[string][]string{
		"farm-eu-1": {"collector-d:9000", "collector-b:9000", "collector-c:9000", "collector-a:9000"},
		"farm-us-2": {"collector-d:9000", "collector-b:9000", "collector-c:9000", "collector-a:9000"},
		"farm-ap-3": {"collector-c:9000", "collector-d:9000", "collector-b:9000", "collector-a:9000"},
	}
	for farm, exp := range want {
		got := RankEndpoints(farm, addrs)
		if len(got) != len(exp) {
			t.Fatalf("%s: got %v, want %v", farm, got, exp)
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("%s: got %v, want %v", farm, got, exp)
			}
		}
	}
	// Input order must not matter (only the (farm, addr) bytes do).
	shuffled := []string{"collector-c:9000", "collector-a:9000", "collector-d:9000", "collector-b:9000"}
	got := RankEndpoints("farm-eu-1", shuffled)
	for i, a := range want["farm-eu-1"] {
		if got[i] != a {
			t.Fatalf("shuffled input changed the ranking: got %v", got)
		}
	}
}

// TestRankEndpointsStability proves the minimal-disruption property:
// removing one collector only remaps the farms that ranked it first —
// every other farm keeps its choice, and in fact its whole failover
// order (minus the removed entry).
func TestRankEndpointsStability(t *testing.T) {
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:9000", i+1)
	}
	farms := farmNames(1000)

	before := make(map[string][]string, len(farms))
	for _, farm := range farms {
		before[farm] = RankEndpoints(farm, addrs)
	}

	removed := addrs[3]
	var survivors []string
	for _, a := range addrs {
		if a != removed {
			survivors = append(survivors, a)
		}
	}
	remapped := 0
	for _, farm := range farms {
		after := RankEndpoints(farm, survivors)
		if before[farm][0] == removed {
			remapped++
		} else if after[0] != before[farm][0] {
			t.Fatalf("farm %s: first choice moved %s -> %s though %s was not removed",
				farm, before[farm][0], after[0], removed)
		}
		// The full order must be the old order with the removed entry
		// deleted: scores are independent per (farm, addr) pair.
		var expect []string
		for _, a := range before[farm] {
			if a != removed {
				expect = append(expect, a)
			}
		}
		for i := range expect {
			if after[i] != expect[i] {
				t.Fatalf("farm %s: order changed beyond the removal:\n got %v\nwant %v", farm, after, expect)
			}
		}
	}
	if remapped == 0 {
		t.Fatal("no farm had chosen the removed collector — the spread test should have caught this")
	}
}

// TestRankEndpointsSpread checks 1k farms split roughly evenly across 8
// collectors: each should get ~125; a bound of [62, 250] is ~6 sigma,
// so a failure means the hash is biased, not that the dice were unkind.
func TestRankEndpointsSpread(t *testing.T) {
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:9000", i+1)
	}
	counts := map[string]int{}
	for _, farm := range farmNames(1000) {
		counts[RankEndpoints(farm, addrs)[0]]++
	}
	for _, a := range addrs {
		if c := counts[a]; c < 62 || c > 250 {
			t.Errorf("collector %s chosen by %d/1000 farms, want ~125 (bounds [62, 250])", a, c)
		}
	}
}

// --- backoff regression -------------------------------------------------

// ackless listens and plays a collector that accepts TCP and reads the
// HELLO and frames, but never acks — the shape of an auth-skewed or
// half-dead collector. With closeAfter > 0 each connection is cut after
// reading that many frames (accept-then-reject); with 0 connections
// stay open silently. frames counts wire frames read (HELLO included).
type ackless struct {
	ln         net.Listener
	closeAfter int
	frames     atomic.Int64
	mu         sync.Mutex
	conns      []net.Conn
	wg         sync.WaitGroup
}

func startAckless(t *testing.T, closeAfter int) *ackless {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := &ackless{ln: ln, closeAfter: closeAfter}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			a.mu.Lock()
			a.conns = append(a.conns, conn)
			a.mu.Unlock()
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				read := 0
				for {
					if _, err := wire.ReadFrame(conn, DefaultMaxFrame); err != nil {
						return
					}
					a.frames.Add(1)
					read++
					if a.closeAfter > 0 && read >= a.closeAfter {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	return a
}

func (a *ackless) addr() string { return a.ln.Addr().String() }

func (a *ackless) stop() {
	a.ln.Close()
	a.mu.Lock()
	for _, c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// TestBackoffResetOnlyAfterAck is the regression test for the reconnect
// backoff bug: a successful dial used to reset the backoff to the
// floor, so a collector that accepted TCP (and even read frames) but
// never acked was redialed at MinBackoff forever. The fix resets only
// after the first acked frame on a connection.
func TestBackoffResetOnlyAfterAck(t *testing.T) {
	// Each connection is cut right after the HELLO is read: dial
	// succeeds, nothing is ever acked.
	fake := startAckless(t, 1)
	defer fake.stop()

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{fake.addr()}, Token: "tok", Farm: "backoff",
		FrameEvents: 4,
		MinBackoff:  20 * time.Millisecond, MaxBackoff: 400 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	if err := fwd.RecordBatch(testEvents(4)); err != nil {
		t.Fatal(err)
	}
	// Each connection: dial, HELLO, one frame written, silence, and —
	// since the fake never acks — the write deadline or our kill cuts
	// it. Give the sink 700ms; an exponential backoff from 20ms fits at
	// most ~8 dials in that window, while the buggy floor-rate loop
	// managed 30+.
	time.Sleep(700 * time.Millisecond)
	st := fwd.Stats()
	if st.Dials > 12 {
		t.Fatalf("%d dials against an ackless collector in 700ms — backoff reset on dial, not on ack (stats %+v)", st.Dials, st)
	}
	if st.EventsAcked != 0 {
		t.Fatalf("ackless collector acked %d events?", st.EventsAcked)
	}
	if got := st.Endpoints[0].Backoff; got <= 20*time.Millisecond {
		t.Fatalf("endpoint backoff = %v after ackless connections, want > MinBackoff", got)
	}

	// A collector that actually acks earns the reset: take over the
	// same address and serve for real.
	addr := fake.addr()
	fake.stop()
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go coll.Serve(ln)
	defer coll.Close()

	waitFor(t, 5*time.Second, func() bool { return sink.len() == 4 }, "delivery once the collector acks")
	waitFor(t, 2*time.Second, func() bool {
		return fwd.Stats().Endpoints[0].Backoff == 20*time.Millisecond
	}, "backoff reset after the first acked frame")
}

// --- failover, pinning, failback ---------------------------------------

// pickFarmFor returns a farm name whose rendezvous ranking puts target
// first among addrs — so tests control which collector a farm chooses
// even though test listeners bind random ports.
func pickFarmFor(t *testing.T, target string, addrs []string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		farm := fmt.Sprintf("farm-pick-%d", i)
		if RankEndpoints(farm, addrs)[0] == target {
			return farm
		}
	}
	t.Fatal("no farm name ranks the target first — rendezvous spread is broken")
	return ""
}

// eventKeys dedups events by their identifying payload.
func eventKeys(t *testing.T, evs []core.Event) map[string]int {
	t.Helper()
	keys := make(map[string]int, len(evs))
	for _, e := range evs {
		keys[e.User]++
	}
	return keys
}

// TestForwardPinningExactlyOnce drives the cross-collector duplicate
// scenario deterministically: collector A receives a frame but its ack
// never arrives (the ingested-but-unacked window a SIGKILL opens), the
// farm fails over to B — and must NOT retransmit that frame to B,
// because A may have ingested it. The frame stays pinned to A and
// drains when A returns; every event lands on exactly one collector.
func TestForwardPinningExactlyOnce(t *testing.T) {
	fakeA := startAckless(t, 0)
	sinkB := &memSink{}
	collB, err := NewCollector(CollectorOptions{Token: "tok"}, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	addrB, stopB := startCollector(t, collB)
	defer stopB()

	addrA := fakeA.addr()
	addrs := []string{addrA, addrB}
	farm := pickFarmFor(t, addrA, addrs)

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: addrs, Token: "tok", Farm: farm,
		FrameEvents: 4,
		MinBackoff:  5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		FailbackInterval: 30 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	// Frame 1 goes to A (rank 0), which reads it and goes silent.
	if err := fwd.RecordBatch(testEvents(4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return fakeA.frames.Load() >= 2 }, "fake collector read HELLO + frame 1")
	fakeA.stop() // the SIGKILL: connection dies, ack never sent

	// Wait until the farm has observed the cut and is serving B: an
	// event recorded before then can legitimately be written into A's
	// dying socket (and so be pinned to A — A may have read it).
	waitFor(t, 5*time.Second, func() bool {
		st := fwd.Stats()
		return st.Connected && len(st.Endpoints) == 2 && st.Endpoints[1].Current
	}, "failover to B observed")

	// Frame 2: the farm is on B, which must see ONLY frame 2 — frame 1
	// is pinned to A.
	batch2 := make([]core.Event, 4)
	for i := range batch2 {
		batch2[i] = testEvent(100 + i)
	}
	if err := fwd.RecordBatch(batch2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sinkB.len() == 4 }, "frame 2 delivered to the failover collector")
	for _, e := range sinkB.snapshot() {
		if k := eventKeys(t, batch2); k[e.User] == 0 {
			t.Fatalf("collector B received pinned event %q — cross-collector retransmit of a possibly-ingested frame", e.User)
		}
	}
	st := fwd.Stats()
	if st.SpoolFrames != 1 || st.Endpoints[0].PinnedFrames != 1 {
		t.Fatalf("want exactly frame 1 pinned to rank 0: %+v", st)
	}
	if st.Failovers == 0 {
		t.Fatal("failover to B not counted")
	}

	// A returns (same address, now a real collector): the failback probe
	// finds it and the pinned frame drains there — nowhere else.
	sinkA := &memSink{}
	collA, err := NewCollector(CollectorOptions{Token: "tok"}, sinkA)
	if err != nil {
		t.Fatal(err)
	}
	lnA, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrA, err)
	}
	go collA.Serve(lnA)
	defer collA.Close()

	waitFor(t, 10*time.Second, func() bool { return sinkA.len() == 4 }, "pinned frame drained to its owner")
	fwd.Flush()
	gotA, gotB := eventKeys(t, sinkA.snapshot()), eventKeys(t, sinkB.snapshot())
	want := eventKeys(t, append(testEvents(4), batch2...))
	for user, n := range want {
		if gotA[user]+gotB[user] != n {
			t.Fatalf("event %q: %d on A + %d on B, want exactly %d", user, gotA[user], gotB[user], n)
		}
	}
	if st := fwd.Stats(); st.SpoolFrames != 0 || st.EventsAcked != 8 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestForwardFailoverLossless floods a two-collector tier, kills the
// farm's chosen collector mid-flood, and checks the accounting
// invariant across the cutover and the restart: every enqueued event is
// acked by exactly one collector.
func TestForwardFailoverLossless(t *testing.T) {
	sink1, sink2 := &memSink{}, &memSink{}
	coll1, err := NewCollector(CollectorOptions{Token: "tok"}, sink1)
	if err != nil {
		t.Fatal(err)
	}
	coll2, err := NewCollector(CollectorOptions{Token: "tok"}, sink2)
	if err != nil {
		t.Fatal(err)
	}
	addr1, stop1 := startCollector(t, coll1)
	addr2, stop2 := startCollector(t, coll2)
	defer stop2()

	addrs := []string{addr1, addr2}
	farm := pickFarmFor(t, addr1, addrs)
	sinks := map[string]*memSink{addr1: sink1, addr2: sink2}
	colls := map[string]*Collector{addr1: coll1, addr2: coll2}

	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: addrs, Token: "tok", Farm: farm,
		Block:       true, // lossless: measure delivery, not shedding
		FrameEvents: 16,
		MinBackoff:  time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		FailbackInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	const total = 2000
	killAt := total / 3 / 10 * 10
	restartAt := 2 * total / 3 / 10 * 10
	var restart func()
	for i := 0; i < total; i += 10 {
		batch := make([]core.Event, 10)
		for j := range batch {
			batch[j] = testEvent(i + j)
		}
		if err := fwd.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
		if i == killAt {
			// Make sure the chosen collector has actually ingested
			// before the kill, so the cutover exercises failover of a
			// live connection rather than a never-connected endpoint.
			waitFor(t, 10*time.Second, func() bool { return sinks[addr1].len() > 0 }, "chosen collector ingesting before the kill")
			stop1() // SIGKILL-shaped: conns die, unacked frames stay pinned
		}
		if i == restartAt && restart == nil {
			// RecordBatch does not block between the kill and here, so
			// without this wait a slow pump would see the collector back
			// before it ever failed over.
			waitFor(t, 10*time.Second, func() bool { return sinks[addr2].len() > 0 }, "failover collector ingesting before the rebind")
			// Bring the chosen collector back on the same address; its
			// dedup state survived Close, so pinned replays are absorbed.
			ln, err := net.Listen("tcp", addr1)
			if err != nil {
				t.Fatalf("rebind %s: %v", addr1, err)
			}
			done := make(chan error, 1)
			go func() { done <- colls[addr1].Serve(ln) }()
			restart = func() {
				colls[addr1].Close()
				<-done
			}
		}
	}
	if restart != nil {
		defer restart()
	}

	waitFor(t, 20*time.Second, func() bool {
		return sinks[addr1].len()+sinks[addr2].len() >= total
	}, "all events delivered across the tier")
	fwd.Flush()

	got := eventKeys(t, append(sinks[addr1].snapshot(), sinks[addr2].snapshot()...))
	for i := 0; i < total; i++ {
		if n := got[fmt.Sprintf("user%d", i)]; n != 1 {
			t.Fatalf("event user%d delivered %d times, want exactly once", i, n)
		}
	}
	st := fwd.Stats()
	if st.EventsAcked != total || st.Shed != 0 {
		t.Fatalf("acked=%d shed=%d, want %d/0: %+v", st.EventsAcked, st.Shed, total, st)
	}
	if st.Failovers == 0 {
		t.Fatal("killing the chosen collector mid-flood produced no failover")
	}
	if sinks[addr2].len() == 0 {
		t.Fatal("failover collector received nothing — the farm never cut over")
	}
}

// --- benchmark ----------------------------------------------------------

// BenchmarkRelayMultiCollector measures aggregate acked events/s across
// a collector tier. collectors=N runs 4 farms (names picked so
// rendezvous spreads them round-robin over the tier) flooding
// concurrently; failover runs 1 farm against 3 collectors and kills and
// restarts the chosen one mid-run, so the number covers the cutover
// path, not just the happy path.
func BenchmarkRelayMultiCollector(b *testing.B) {
	const batch = 256

	startColl := func(b *testing.B) (string, *Collector, io.Closer) {
		b.Helper()
		coll, err := NewCollector(CollectorOptions{Token: "bench"}, &memSink{})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go coll.Serve(ln)
		return ln.Addr().String(), coll, ln
	}

	// benchFarmFor mirrors pickFarmFor for benchmarks. Names must be
	// unique per forwarder — two forwarders claiming one farm name at a
	// collector fight over the session epoch and kill each other's
	// connections — so used names are skipped.
	used := make(map[string]bool)
	benchFarmFor := func(b *testing.B, target string, addrs []string) string {
		b.Helper()
		for i := 0; i < 10000; i++ {
			farm := fmt.Sprintf("bench-farm-%d", i)
			if !used[farm] && RankEndpoints(farm, addrs)[0] == target {
				used[farm] = true
				return farm
			}
		}
		b.Fatal("no unused farm name ranks the target first")
		return ""
	}

	for _, nc := range []int{1, 3} {
		b.Run(fmt.Sprintf("collectors=%d", nc), func(b *testing.B) {
			addrs := make([]string, nc)
			colls := make([]*Collector, nc)
			for i := 0; i < nc; i++ {
				var closer io.Closer
				addrs[i], colls[i], closer = startColl(b)
				defer closer.Close()
				defer colls[i].Close()
			}
			const nfarms = 4
			fwds := make([]*ForwardSink, nfarms)
			for i := range fwds {
				farm := benchFarmFor(b, addrs[i%nc], addrs)
				fwd, err := NewForwardSink(ForwardOptions{
					Addrs: addrs, Token: "bench", Farm: farm, Block: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				fwds[i] = fwd
				defer fwd.Close()
			}
			events := testEvents(batch)
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, fwd := range fwds {
				wg.Add(1)
				go func(f *ForwardSink) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						_ = f.RecordBatch(events)
					}
					f.Flush()
				}(fwd)
			}
			wg.Wait()
			b.StopTimer()
			total := float64(b.N) * batch * nfarms
			b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
		})
	}

	b.Run("failover", func(b *testing.B) {
		const nc = 3
		addrs := make([]string, nc)
		colls := make([]*Collector, nc)
		closers := make([]io.Closer, nc)
		for i := 0; i < nc; i++ {
			addrs[i], colls[i], closers[i] = startColl(b)
			defer colls[i].Close()
		}
		farm := benchFarmFor(b, addrs[0], addrs)
		fwd, err := NewForwardSink(ForwardOptions{
			Addrs: addrs, Token: "bench", Farm: farm, Block: true,
			MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
			FailbackInterval: 20 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer fwd.Close()

		events := testEvents(batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if b.N >= 4 && i == b.N/3 {
				// Kill the chosen collector mid-flood — but only after
				// it has acked something, so the cutover is a failover
				// of a served connection, not a never-connected dial.
				for wait := 0; fwd.Stats().EventsAcked == 0 && wait < 2000; wait++ {
					time.Sleep(time.Millisecond)
				}
				closers[0].Close()
				colls[0].Close()
			}
			if b.N >= 4 && i == 2*b.N/3 {
				// ...and bring it back — but only once the cutover has
				// actually happened (the enqueue loop runs far faster
				// than failure detection), so the measured run always
				// includes one real failover and one failback.
				for wait := 0; fwd.Stats().Failovers == 0 && wait < 2000; wait++ {
					time.Sleep(time.Millisecond)
				}
				ln, err := net.Listen("tcp", addrs[0])
				if err != nil {
					b.Fatalf("rebind: %v", err)
				}
				closers[0] = ln
				go colls[0].Serve(ln)
			}
			_ = fwd.RecordBatch(events)
		}
		fwd.Flush()
		b.StopTimer()
		for _, c := range closers {
			c.Close()
		}
		total := float64(b.N) * batch
		b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(fwd.Stats().Failovers), "failovers")
	})
}
