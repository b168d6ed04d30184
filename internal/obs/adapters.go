package obs

import (
	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/relay"
	"decoydb/internal/wal"
)

// This file holds the scrape-time adapters: each wraps one subsystem's
// Stats() snapshot as an obs.Source. An adapter takes exactly one
// snapshot per Collect or Status call and translates it into metric
// families — the subsystems keep their plain counters and pay nothing
// until a scraper asks. Unbounded label sets (per-source shed tables)
// stay out of /metrics deliberately; they surface in /statusz where
// cardinality is not a time-series liability.

// busSource adapts *bus.Bus.
type busSource struct{ b *bus.Bus }

// BusSource wraps the event bus as a registry source named "bus".
func BusSource(b *bus.Bus) Source { return busSource{b} }

func (s busSource) Name() string { return "bus" }

func (s busSource) Status() any { return s.b.Stats() }

func (s busSource) Collect(e *Emitter) {
	st := s.b.Stats()
	e.Counter("decoydb_bus_enqueued_total", "Events accepted by the bus.", float64(st.Enqueued))
	e.Counter("decoydb_bus_delivered_total", "Events delivered to sinks.", float64(st.Delivered))
	e.Counter("decoydb_bus_dropped_total", "Events dropped by backpressure policy.", float64(st.Dropped))
	e.Counter("decoydb_bus_shed_unattributed_total", "Adaptive sheds whose per-source entry was evicted.", float64(st.ShedUnattributed))
	e.Gauge("decoydb_bus_pending", "Events queued, not yet delivered.", float64(st.Pending))
	e.Gauge("decoydb_bus_shards", "Bus shard count.", float64(st.Shards))

	// Delivered batch sizes: bucket i of BatchHist covers (2^(i-1), 2^i]
	// events, last bucket open-ended — which maps to bounds 2^i for the
	// first HistBuckets-1 buckets with the open tail in +Inf. The sum of
	// all batch-size observations is exactly the delivered event count.
	bounds := make([]float64, bus.HistBuckets-1)
	for i := range bounds {
		bounds[i] = float64(uint64(1) << uint(i))
	}
	var batches uint64
	for _, n := range st.BatchHist {
		batches += n
	}
	e.Histogram("decoydb_bus_batch_size", "Events per delivered batch.",
		bounds, st.BatchHist[:bus.HistBuckets-1], float64(st.Delivered), batches)

	emitSinks(e, "decoydb_bus", st.Sinks)
	for _, sk := range st.Sinks {
		e.Counter("decoydb_bus_sink_errors_total", "Delivery errors, per sink.", float64(sk.Errors), L("sink", sk.Name))
	}
}

// emitSinks writes one fan-out's per-sink delivery counters, the same
// series on the farm's bus and on the collector.
func emitSinks(e *Emitter, prefix string, sinks []core.SinkStats) {
	for _, sk := range sinks {
		l := L("sink", sk.Name)
		e.Counter(prefix+"_sink_events_total", "Events in successfully delivered batches, per sink.", float64(sk.Events), l)
		e.Counter(prefix+"_sink_batches_total", "Batches delivered, per sink.", float64(sk.Batches), l)
		e.Counter(prefix+"_sink_failed_events_total", "Events in batches whose delivery errored, per sink.", float64(sk.FailedEvents), l)
		e.Counter(prefix+"_sink_busy_seconds_total", "Cumulative time spent delivering, per sink.", sk.Latency.Seconds(), l)
	}
}

// kindSource adapts *bus.StatsSink (per-kind event counts).
type kindSource struct{ s *bus.StatsSink }

// KindSource wraps a StatsSink as a registry source named "events".
func KindSource(s *bus.StatsSink) Source { return kindSource{s} }

func (s kindSource) Name() string { return "events" }

func (s kindSource) Status() any { return s.s.Counts() }

func (s kindSource) Collect(e *Emitter) {
	c := s.s.Counts()
	const name = "decoydb_events_total"
	const help = "Events observed, by kind."
	e.Counter(name, help, float64(c.Connects), L("kind", "connect"))
	e.Counter(name, help, float64(c.Logins), L("kind", "login"))
	e.Counter(name, help, float64(c.Commands), L("kind", "command"))
	e.Counter(name, help, float64(c.Closes), L("kind", "close"))
	e.Counter(name, help, float64(c.Other), L("kind", "other"))
	e.Counter("decoydb_events_login_ok_total", "Logins the honeypots pretended to accept.", float64(c.LoginOK))
}

// forwardSource adapts *relay.ForwardSink.
type forwardSource struct{ f *relay.ForwardSink }

// ForwardSource wraps a relay forwarder as a registry source named
// "relay".
func ForwardSource(f *relay.ForwardSink) Source { return forwardSource{f} }

func (s forwardSource) Name() string { return "relay" }

func (s forwardSource) Status() any { return s.f.Stats() }

func (s forwardSource) Collect(e *Emitter) {
	st := s.f.Stats()
	l := L("farm", st.Farm)
	conn := 0.0
	if st.Connected {
		conn = 1
	}
	e.Gauge("decoydb_relay_connected", "1 when the forwarder link is up.", conn, l)
	e.Counter("decoydb_relay_enqueued_total", "Events accepted into pending/spool.", float64(st.Enqueued), l)
	e.Counter("decoydb_relay_events_acked_total", "Events the collector has acknowledged.", float64(st.EventsAcked), l)
	e.Counter("decoydb_relay_frames_total", "Frames encoded.", float64(st.Frames), l)
	e.Counter("decoydb_relay_frames_sent_total", "Frame writes completed, retransmits included.", float64(st.FramesSent), l)
	e.Counter("decoydb_relay_frames_acked_total", "Frames acknowledged.", float64(st.FramesAcked), l)
	e.Counter("decoydb_relay_wire_bytes_total", "Frame bytes produced, length prefixes included.", float64(st.WireBytes), l)
	e.Counter("decoydb_relay_raw_bytes_total", "Raw event-encoding bytes framed.", float64(st.RawBytes), l)
	e.Counter("decoydb_relay_dials_total", "Dial attempts.", float64(st.Dials), l)
	e.Counter("decoydb_relay_dial_errors_total", "Failed dials.", float64(st.DialErrors), l)
	e.Counter("decoydb_relay_reconnects_total", "Successful dials after the first.", float64(st.Reconnects), l)
	e.Counter("decoydb_relay_shed_total", "Events dropped: spool full, oversized, or retry cap.", float64(st.Shed), l)
	e.Counter("decoydb_relay_dropped_frames_total", "Spooled frames dropped at the retry cap.", float64(st.DroppedFrames), l)
	e.Gauge("decoydb_relay_spool_frames", "Frames currently spooled (unacked).", float64(st.SpoolFrames), l)
	e.Gauge("decoydb_relay_spool_events", "Events in spooled frames.", float64(st.SpoolEvents), l)
	e.Gauge("decoydb_relay_spool_bytes", "Wire bytes the spool occupies.", float64(st.SpoolBytes), l)
	e.Gauge("decoydb_relay_pending_events", "Events not yet framed.", float64(st.Pending), l)
	e.Counter("decoydb_relay_failovers_total", "Cutovers to a different collector.", float64(st.Failovers), l)
	e.Counter("decoydb_relay_reloads_total", "Live endpoint-set reloads applied via SetEndpoints.", float64(st.Reloads), l)
	e.Gauge("decoydb_relay_orphan_frames", "Spooled frames pinned to a collector absent from the current endpoint set.", float64(st.OrphanFrames), l)
	e.Durations("decoydb_relay_ack_rtt_seconds", "Frame write-to-ack round trip.", st.AckRTT, l)
	for _, ep := range st.Endpoints {
		le := L("collector", ep.Addr)
		cur := 0.0
		if ep.Current {
			cur = 1
		}
		e.Gauge("decoydb_relay_endpoint_current", "1 on the collector currently serving this farm.", cur, l, le)
		e.Gauge("decoydb_relay_endpoint_rank", "Rendezvous rank of this collector for this farm (0 = preferred).", float64(ep.Rank), l, le)
		e.Counter("decoydb_relay_endpoint_dials_total", "Dial attempts, per collector.", float64(ep.Dials), l, le)
		e.Counter("decoydb_relay_endpoint_dial_errors_total", "Failed dials, per collector.", float64(ep.DialErrors), l, le)
		e.Counter("decoydb_relay_endpoint_frames_acked_total", "Frames acknowledged, per collector.", float64(ep.FramesAcked), l, le)
		e.Counter("decoydb_relay_endpoint_events_acked_total", "Events acknowledged, per collector.", float64(ep.EventsAcked), l, le)
		e.Gauge("decoydb_relay_endpoint_pinned_frames", "Spooled frames pinned to this collector (sent, unacked).", float64(ep.PinnedFrames), l, le)
	}
}

// collectorSource adapts *relay.Collector.
type collectorSource struct{ c *relay.Collector }

// CollectorSource wraps the central collector as a registry source
// named "collector".
func CollectorSource(c *relay.Collector) Source { return collectorSource{c} }

func (s collectorSource) Name() string { return "collector" }

func (s collectorSource) Status() any { return s.c.Stats() }

func (s collectorSource) Collect(e *Emitter) {
	st := s.c.Stats()
	e.Counter("decoydb_collector_conns_total", "Accepted connections.", float64(st.Conns))
	e.Counter("decoydb_collector_auths_total", "Connections that passed the token check.", float64(st.Auths))
	e.Counter("decoydb_collector_auth_failures_total", "Rejected authentication attempts.", float64(st.AuthFailures))
	e.Counter("decoydb_collector_bad_frames_total", "Frames rejected as malformed.", float64(st.BadFrames))
	e.Counter("decoydb_collector_frames_total", "Frames ingested.", float64(st.Frames))
	e.Counter("decoydb_collector_events_total", "Deduplicated events ingested.", float64(st.Events))
	e.Counter("decoydb_collector_dup_frames_total", "Retransmitted frames discarded by dedup.", float64(st.DupFrames))
	e.Counter("decoydb_collector_dup_events_total", "Events inside duplicate frames.", float64(st.DupEvents))
	e.Counter("decoydb_collector_wire_bytes_total", "Frame bytes received, length prefixes included.", float64(st.WireBytes))
	e.Counter("decoydb_collector_raw_bytes_total", "Raw event-encoding bytes received.", float64(st.RawBytes))
	e.Counter("decoydb_collector_sink_errors_total", "Downstream sink errors, summed over sinks.", float64(st.SinkErrors))
	emitSinks(e, "decoydb_collector", st.Sinks)
	e.Gauge("decoydb_collector_active_conns", "Currently open connections.", float64(st.Active))
	e.Gauge("decoydb_collector_listeners", "Listeners registered by Serve.", float64(st.Listeners))
	for _, f := range st.Farms {
		l := L("farm", f.Name)
		e.Counter("decoydb_collector_farm_events_total", "Deduplicated events ingested, per farm.", float64(f.Events), l)
		e.Counter("decoydb_collector_farm_dup_events_total", "Duplicate events discarded, per farm.", float64(f.DupEvents), l)
		e.Gauge("decoydb_collector_farm_last_seq", "Highest ingested sequence in the current epoch, per farm.", float64(f.LastSeq), l)
	}
}

// walSource adapts *wal.Log, labelled so a process running several logs
// (journal + relay spool) keeps them apart.
type walSource struct {
	name string
	l    *wal.Log
}

// WALSource wraps a WAL as a registry source. name distinguishes logs
// within one process (e.g. "journal", "spool"); it becomes both the
// /statusz key ("wal_<name>") and the {log=...} metric label.
func WALSource(name string, l *wal.Log) Source { return walSource{name, l} }

func (s walSource) Name() string { return "wal_" + s.name }

func (s walSource) Status() any { return s.l.Stats() }

func (s walSource) Collect(e *Emitter) {
	st := s.l.Stats()
	l := L("log", s.name)
	e.Counter("decoydb_wal_appended_batches_total", "Batches appended.", float64(st.AppendedBatches), l)
	e.Counter("decoydb_wal_appended_events_total", "Events appended.", float64(st.AppendedEvents), l)
	e.Counter("decoydb_wal_appended_bytes_total", "Record bytes appended.", float64(st.AppendedBytes), l)
	e.Counter("decoydb_wal_syncs_total", "fsync calls issued.", float64(st.Syncs), l)
	e.Counter("decoydb_wal_rotations_total", "Segment rotations.", float64(st.Rotations), l)
	e.Counter("decoydb_wal_marks_total", "Consumer mark records appended.", float64(st.Marks), l)
	e.Counter("decoydb_wal_compacted_segments_total", "Segments deleted by Compact/CompactBefore.", float64(st.Compacted), l)
	e.Counter("decoydb_wal_compacted_bytes_total", "Bytes reclaimed by compaction.", float64(st.CompactedBytes), l)
	e.Gauge("decoydb_wal_segments", "Segment files on disk.", float64(st.Segments), l)
	e.Gauge("decoydb_wal_last_seq", "Highest batch sequence.", float64(st.LastSeq), l)
	e.Gauge("decoydb_wal_mark", "Highest consumer mark.", float64(st.Mark), l)
	e.Gauge("decoydb_wal_active_bytes", "Size of the active segment.", float64(st.ActiveBytes), l)
	e.Durations("decoydb_wal_append_seconds", "Append call duration, encoding included.", st.AppendLatency, l)
}

// storeStatus is the /statusz snapshot for an event store.
type storeStatus struct {
	Events        int64             `json:"events"`
	Sources       int               `json:"sources"`
	Shards        int               `json:"shards"`
	Days          int               `json:"days"`
	SnapshotBuild core.DurationHist `json:"snapshot_build"`
	SnapshotLock  core.DurationHist `json:"snapshot_lock"`
}

// storeSource adapts *evstore.Store.
type storeSource struct{ s *evstore.Store }

// StoreSource wraps an event store as a registry source named "store".
func StoreSource(s *evstore.Store) Source { return storeSource{s} }

func (s storeSource) Name() string { return "store" }

func (s storeSource) Status() any {
	snaps := s.s.SnapshotStats()
	return storeStatus{
		Events:        s.s.Events(),
		Sources:       s.s.Sources(),
		Shards:        s.s.Shards(),
		Days:          s.s.Days(),
		SnapshotBuild: snaps.Build,
		SnapshotLock:  snaps.Lock,
	}
}

func (s storeSource) Collect(e *Emitter) {
	e.Counter("decoydb_store_events_total", "Events ingested into the store.", float64(s.s.Events()))
	e.Gauge("decoydb_store_sources", "Distinct source addresses recorded.", float64(s.s.Sources()))
	e.Gauge("decoydb_store_shards", "Store shard count.", float64(s.s.Shards()))
	snaps := s.s.SnapshotStats()
	e.Durations("decoydb_store_snapshot_seconds", "Snapshot build time.", snaps.Build)
	e.Durations("decoydb_store_snapshot_lock_seconds", "Shard-lock hold time per snapshot, summed over shards.", snaps.Lock)
}
