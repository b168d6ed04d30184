package wal

import "decoydb/internal/core"

// Sink adapts a Log to the core sink contracts so it can hang directly
// off the event bus: each delivered batch becomes one WAL batch record.
// decoydb uses this as the local journal — the bus fans out to the
// in-memory store, the relay forwarder and this sink, so every captured
// event hits disk in the same breath it hits memory.
type Sink struct {
	l *Log
}

// NewSink returns a bus-attachable sink journaling into l.
func NewSink(l *Log) *Sink { return &Sink{l: l} }

// Record implements core.Sink. Single events pay a whole record each;
// deliver through the batch path where possible.
func (s *Sink) Record(e core.Event) {
	_, _ = s.l.Append([]core.Event{e}, nil)
}

// RecordBatch implements core.BatchSink.
func (s *Sink) RecordBatch(events []core.Event) error {
	_, err := s.l.Append(events, nil)
	return err
}

// Flush implements core.Flusher: it forces appended records to stable
// storage, so a quiesce point (shutdown, snapshot dump) really is on
// disk.
func (s *Sink) Flush() {
	_ = s.l.Sync()
}
