package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// batchSink takes whole batches and can be told to fail them.
type batchSink struct {
	mu      sync.Mutex
	err     error
	batches int
	events  []Event
}

func (s *batchSink) Record(e Event) { _ = s.RecordBatch([]Event{e}) }

func (s *batchSink) RecordBatch(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.batches++
	s.events = append(s.events, events...)
	return nil
}

// taggedSink is a batchSink that also journals each batch's tag.
type taggedSink struct {
	batchSink
	tags []string
}

func (s *taggedSink) RecordBatchTagged(events []Event, tag []byte) error {
	if err := s.RecordBatch(events); err != nil {
		return err
	}
	s.mu.Lock()
	s.tags = append(s.tags, string(tag))
	s.mu.Unlock()
	return nil
}

func fanEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{Kind: EventLogin, User: "sa"}
	}
	return out
}

// TestFanoutClassifiesSinks checks that each sink is reached through
// the widest path it implements: a tagged sink journals the tag when one
// is given, a batch sink takes the batch whole, a plain sink gets every
// event.
func TestFanoutClassifiesSinks(t *testing.T) {
	plain, batch, tagged := &MemSink{}, &batchSink{}, &taggedSink{}
	f := NewFanout(plain, batch, tagged)

	if ok, err := f.Deliver(fanEvents(3), []byte("farm/1")); !ok || err != nil {
		t.Fatalf("tagged delivery = %v, %v", ok, err)
	}
	if ok, err := f.Deliver(fanEvents(2), nil); !ok || err != nil {
		t.Fatalf("untagged delivery = %v, %v", ok, err)
	}
	if plain.Len() != 5 {
		t.Fatalf("plain sink got %d events, want 5", plain.Len())
	}
	if batch.batches != 2 || len(batch.events) != 5 {
		t.Fatalf("batch sink got %d events in %d batches, want 5 in 2", len(batch.events), batch.batches)
	}
	if len(tagged.events) != 5 || len(tagged.tags) != 1 || tagged.tags[0] != "farm/1" {
		t.Fatalf("tagged sink got %d events, tags %q; want 5 events and one tag, farm/1", len(tagged.events), tagged.tags)
	}
	plain.Reset()
	if plain.Len() != 0 {
		t.Fatal("MemSink.Reset kept events")
	}
}

// TestFanoutNames checks the #N suffix on sinks of one type and that
// Stats keeps delivery order.
func TestFanoutNames(t *testing.T) {
	f := NewFanout(&batchSink{}, &MemSink{}, &batchSink{}, NopSink)
	want := []string{"*core.batchSink#1", "*core.MemSink", "*core.batchSink#2", "core.SinkFunc"}
	st := f.Stats()
	if len(st) != len(want) {
		t.Fatalf("stats has %d sinks, want %d", len(st), len(want))
	}
	for i, w := range want {
		if st[i].Name != w {
			t.Fatalf("sink %d named %q, want %q", i, st[i].Name, w)
		}
	}
}

// TestFanoutCounters checks each sink's batch, event, failed-event and
// error counts, and that busy time accrues.
func TestFanoutCounters(t *testing.T) {
	boom := errors.New("disk full")
	good, bad := &batchSink{}, &batchSink{err: boom}
	f := NewFanout(good, bad)
	for _, n := range []int{4, 3} {
		if ok, err := f.Deliver(fanEvents(n), nil); !ok || !errors.Is(err, boom) {
			t.Fatalf("Deliver = %v, %v; want accepted with %v", ok, err, boom)
		}
	}
	st := f.Stats()
	g, b := st[0], st[1]
	if g.Batches != 2 || g.Events != 7 || g.FailedEvents != 0 || g.Errors != 0 {
		t.Fatalf("healthy sink stats %+v, want 2 batches, 7 events, nothing failed", g)
	}
	if b.Batches != 2 || b.Events != 0 || b.FailedEvents != 7 || b.Errors != 2 {
		t.Fatalf("failing sink stats %+v, want 2 batches, 0 events, 7 failed, 2 errors", b)
	}
	if g.Latency <= 0 || g.MaxLatency <= 0 || g.MaxLatency > g.Latency || g.AvgLatency() > g.MaxLatency {
		t.Fatalf("healthy sink busy %v, max %v, avg %v: want 0 < avg <= max <= busy", g.Latency, g.MaxLatency, g.AvgLatency())
	}
}

// TestFanoutAcceptRule checks when a batch counts as accepted, and that
// the error returned is the first failing sink's, named.
func TestFanoutAcceptRule(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	f := NewFanout(&batchSink{err: first}, &taggedSink{batchSink: batchSink{err: second}})
	ok, err := f.Deliver(fanEvents(2), []byte("t"))
	if ok {
		t.Fatal("every sink failed, yet the batch was accepted")
	}
	if !errors.Is(err, first) || errors.Is(err, second) {
		t.Fatalf("error %v, want the first failing sink's", err)
	}
	if !strings.HasPrefix(err.Error(), "*core.batchSink: ") {
		t.Fatalf("error %q does not name its sink", err)
	}

	plain := &MemSink{}
	f = NewFanout(&batchSink{err: first}, plain)
	if ok, err := f.Deliver(fanEvents(2), nil); !ok || !errors.Is(err, first) {
		t.Fatalf("with a plain sink: Deliver = %v, %v; want accepted with %v", ok, err, first)
	}
	if plain.Len() != 2 {
		t.Fatalf("plain sink got %d events, want 2", plain.Len())
	}
}

// TestFanoutConcurrentDeliver delivers from many goroutines at once, as
// bus workers and collector connections do; run it under -race.
func TestFanoutConcurrentDeliver(t *testing.T) {
	const workers, rounds, size = 8, 200, 3
	good, bad, plain := &batchSink{}, &batchSink{err: errors.New("down")}, &MemSink{}
	f := NewFanout(good, bad, plain)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if ok, _ := f.Deliver(fanEvents(size), nil); !ok {
					t.Error("batch not accepted")
					return
				}
				_ = f.Stats()
			}
		}()
	}
	wg.Wait()
	const batches, events = workers * rounds, workers * rounds * size
	st := f.Stats()
	if st[0].Batches != batches || st[0].Events != events {
		t.Fatalf("healthy sink %+v, want %d batches, %d events", st[0], batches, events)
	}
	if st[1].Errors != batches || st[1].FailedEvents != events {
		t.Fatalf("failing sink %+v, want %d errors, %d failed events", st[1], batches, events)
	}
	if st[2].Events != events || plain.Len() != events {
		t.Fatalf("plain sink counted %d, holds %d; want %d", st[2].Events, plain.Len(), events)
	}
}
