package evstore

import (
	"fmt"

	"decoydb/internal/core"
	"decoydb/internal/wal"
)

// This file makes the store durable. The store proper is pure in-memory
// aggregation — the paper's analyses all run over aggregates — which
// means a crash used to cost the whole capture. With a WAL attached,
// every batch is journaled before it is applied, and reopening over the
// same directory replays the journal through the normal ingest path, so
// the aggregates after a crash are byte-for-byte what re-ingesting the
// original event stream would build.
//
// The write protocol is journal-first: a batch the WAL did not accept
// is not applied and the error surfaces to the deliverer (the bus
// re-counts it as a failed delivery). The reverse order would
// acknowledge events that a crash then silently forgets — the exact
// lie a decoy-database capture cannot afford.

// AttachWAL attaches journal l to the store: it first replays every
// batch already in the log through the normal ingest path (rebuilding
// the aggregates of a previous process), then arms journaling so every
// subsequent batch is appended to l before it is applied.
//
// onReplay, when non-nil, observes the provenance tag of every replayed
// batch (nil for untagged batches) — dbcollect uses it to rebuild its
// per-farm dedup marks from the tags journaled by RecordBatchTagged.
// The tag is only valid during the call.
//
// Attach to a freshly constructed store, before any concurrent use:
// events ingested before the attach are not journaled, and replaying
// into a non-empty store double-counts. It returns the number of events
// replayed.
func (s *Store) AttachWAL(l *wal.Log, onReplay func(tag []byte)) (int, error) {
	if s.wal != nil {
		return 0, fmt.Errorf("evstore: store already has a WAL attached")
	}
	replayed := 0
	err := l.Replay(1, func(_ uint64, tag []byte, events []core.Event) error {
		if err := s.RecordBatch(events); err != nil {
			return err
		}
		replayed += len(events)
		if onReplay != nil {
			onReplay(tag)
		}
		return nil
	})
	if err != nil {
		return replayed, fmt.Errorf("evstore: WAL replay: %w", err)
	}
	s.wal = l
	return replayed, nil
}

// RecordBatchTagged implements core.TaggedBatchSink: the batch is
// journaled together with an opaque provenance tag (surfaced again via
// AttachWAL's onReplay after a restart), then applied. With no WAL
// attached the tag has nowhere to live and the batch is simply applied.
func (s *Store) RecordBatchTagged(events []core.Event, tag []byte) error {
	if s.wal != nil {
		if _, err := s.wal.Append(events, tag); err != nil {
			return err
		}
	}
	return s.applyBatch(events)
}

// journalBatch appends the batch to the attached WAL, if any. Called by
// RecordBatch before applying.
func (s *Store) journalBatch(events []core.Event) error {
	if s.wal == nil {
		return nil
	}
	_, err := s.wal.Append(events, nil)
	return err
}

// Flush implements core.Flusher: with a WAL attached it forces the
// journal to stable storage, so quiesce points (shutdown, snapshot
// dumps) leave nothing in the write cache.
func (s *Store) Flush() {
	if s.wal != nil {
		_ = s.wal.Sync()
	}
}
