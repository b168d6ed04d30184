package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/geoip"
	"decoydb/internal/simnet"
)

// liveSpec is the shape of one live workload. Each runs the same phases:
// set-up (repeated, the median reported), a warm-up at the open-loop rate,
// an open loop for 60% of the measured time, then a closed loop for the
// rest.
type liveSpec struct {
	traffic func(*simnet.Population) func(*rand.Rand) session
	// rate is the open loop's sessions per second: about a third of what
	// one closed-loop client completes on the reference machine (2 cores).
	// At a third of this rate the cores idle between sessions, and CPU
	// time per session, dominated by per-batch costs, varied several times
	// as much between runs.
	rate float64
	// operator polls /query every second through both phases; without
	// it, the operator queries only after the load has stopped.
	operator bool
}

var liveWorkloads = map[string]liveSpec{
	"brute":       {traffic: bruteTraffic, rate: 1200},
	"brute-query": {traffic: bruteTraffic, rate: 1200, operator: true},
}

const (
	// openShare is the open loop's share of the measured time.
	openShare = 0.6
	// quietQueries is how many /query round trips the operator makes
	// after the load of a workload without a polling operator.
	quietQueries = 10
	drainTimeout = 30 * time.Second
	// runSlack bounds a run's set-ups and drains, beyond its warm-up and
	// measured time; a run that needs longer has failed a drain.
	runSlack = 3 * time.Minute
)

func runLive(cfg config, spec liveSpec) (*result, error) {
	res := newResult(cfg)
	pop, err := simnet.BuildPopulation(cfg.seed, simnet.DefaultScale, core.ExperimentDays, geoip.Default())
	if err != nil {
		return nil, err
	}
	p := newProbe(cfg.trace)
	heap := startHeapSampler()
	defer heap.stop()

	window := windowStart(time.Now().Add(cfg.warmup + time.Duration(cfg.seconds*float64(time.Second)) + runSlack))
	var setups []float64
	var topo *topology
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		t, err := startTopology(dir, p, collectorConfig{Seed: cfg.seed, Dir: filepath.Join(dir, "collector"), Window: window, Trace: cfg.trace})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == cfg.setups-1 {
			topo = t
			break
		}
		if err := t.close(); err != nil {
			return nil, fmt.Errorf("set-up %d teardown: %w", i, err)
		}
	}
	defer topo.close()

	// One load-generating process holding at most nproc connections: both
	// loops keep nproc-1 sessions in flight beside the operator's slot.
	// With nproc clients the closed loop saturates every core with the
	// farm, the collector and the clients together, and its rate then
	// varied between runs by more than any bound the benchmark can set.
	clients := max(1, runtime.NumCPU()-1)
	g := &generator{p: p, addrs: topo.addrs, plan: newPlan(cfg.seed, spec.traffic(pop))}
	openD := time.Duration(cfg.seconds * openShare * float64(time.Second))
	closedD := time.Duration(cfg.seconds * (1 - openShare) * float64(time.Second))

	g.openLoop(phaseWarmup, spec.rate, cfg.warmup, clients)
	if err := topo.drain(drainTimeout); err != nil {
		return nil, err
	}
	op := newOperator(topo.coll.adminAddr)
	if spec.operator {
		op.start(time.Second)
		defer op.stop()
	}
	cpu0, err := topo.cpu()
	if err != nil {
		return nil, err
	}
	late := g.openLoop(phaseOpen, spec.rate, openD, clients)
	if err := topo.drain(drainTimeout); err != nil {
		return nil, err
	}
	cpu1, err := topo.cpu()
	if err != nil {
		return nil, err
	}
	c0 := topo.committed()
	closedT0 := g.closedLoop(phaseClosed, closedD, clients)
	if err := topo.drain(drainTimeout); err != nil {
		return nil, err
	}
	c1 := topo.committed()
	if spec.operator {
		op.stop()
	} else {
		for i := 0; i < quietQueries; i++ {
			op.poll()
		}
	}
	final, err := topo.quiesce()
	if err != nil {
		return nil, err
	}
	farmHeap := heap.stop()

	outs := g.outcomes
	var from []stamp
	for i, o := range outs {
		if o.src.IsValid() {
			from = append(from, stamp{src: o.src, at: o.end, ref: i})
		}
	}
	commits := make([]stamp, len(final.coll.Commits))
	for i, c := range final.coll.Commits {
		commits[i] = stamp{src: c.Src, at: p.local(c.At), ref: -1}
	}
	closes, _ := pairInOrder(from, commits)
	commitOf := make(map[int]int64, len(closes))
	for _, c := range closes {
		commitOf[c.ref] = c.to
	}

	var sessions, lags []float64 // open loop, ms
	var openDone, closedDone int
	var closedEnd int64
	for i, o := range outs {
		if o.phase == phaseWarmup {
			continue
		}
		res.attempted++
		commit, captured := commitOf[i]
		if o.failed || !captured {
			res.failed++
			continue
		}
		switch o.phase {
		case phaseOpen:
			openDone++
			sessions = append(sessions, float64(o.end-o.due)/1e6)
			lags = append(lags, float64(commit-o.end)/1e6)
		case phaseClosed:
			closedDone++
			closedEnd = max(closedEnd, o.end)
		}
	}
	res.attempted += len(op.rtts) + op.failed
	res.failed += op.failed

	res.set("setup_s", median(setups), len(setups))
	res.set("cpu_us_per_session", float64(cpu1-cpu0)/1e3/float64(openDone), openDone)
	res.set("sessions_per_s", float64(closedDone)/(float64(closedEnd-closedT0)/1e9), closedDone)
	res.set("events_per_s", float64(c1-c0)/(float64(p.local(final.coll.LastCommit)-closedT0)/1e9), int(c1-c0))
	res.set("session_p50_ms", median(sessions), len(sessions))
	res.set("session_p99_ms", quantile(sessions, 0.99), len(sessions))
	res.set("ingest_lag_p50_ms", median(lags), len(lags))
	res.set("ingest_lag_p99_ms", quantile(lags, 0.99), len(lags))
	res.set("query_p50_ms", median(op.rtts), len(op.rtts))
	res.set("rss_peak_mb", rssPeakMB()+final.coll.Runtime.RSSPeakMB, 0)

	layers(res, p, final, commits, late, readRuntime(farmHeap))
	checkLive(res, outs, final, topo)
	if cfg.trace && cfg.spans != "" {
		if err := writeSpans(cfg.spans, res.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layers derives the per-layer metrics: from the spans of a traced run,
// and from the layers' own Stats() counters in every run.
func layers(res *result, p *probe, final counts, commits []stamp, late lateness, farm runtimeStats) {
	coll := final.coll
	res.set("loadgen.late_p50_ms", quantile(late.ms, 0.5), len(late.ms))
	res.set("loadgen.late_p99_ms", quantile(late.ms, 0.99), len(late.ms))
	res.set("loadgen.backlog_max", float64(late.backlog), 0)
	res.set("bus.mean_batch", final.bus.MeanBatch(), 0)
	res.set("wal.collector.append_mean_us", float64(coll.WAL.AppendLatency.Mean())/1e3, int(coll.WAL.AppendLatency.Count))
	res.set("wal.journal.bytes_per_event", perEvent(final.journal.AppendedBytes, final.journal.AppendedEvents), 0)
	res.set("wal.spool.bytes_per_event", perEvent(final.spool.AppendedBytes, final.spool.AppendedEvents), 0)
	res.set("wal.collector.bytes_per_event", perEvent(coll.WAL.AppendedBytes, coll.WAL.AppendedEvents), 0)
	res.set("relay.ack_rtt_mean_ms", float64(final.fwd.AckRTT.Mean())/1e6, int(final.fwd.AckRTT.Count))
	res.set("relay.wire_bytes_per_event", perEvent(final.fwd.WireBytes, final.fwd.Enqueued), 0)
	res.set("relay.compression_ratio", final.fwd.CompressionRatio(), 0)
	res.set("evstore.snapshot_ms", median(coll.Queries), len(coll.Queries))
	res.set("stream.refits", float64(coll.Stream.Refits), 0)
	res.set("runtime.farm.gc_cpu_frac", farm.GCCPUFrac, 0)
	res.set("runtime.farm.heap_peak_mb", farm.HeapPeakMB, 0)
	res.set("runtime.farm.gc_pause_max_ms", farm.GCPauseMax, 0)
	res.set("runtime.collector.gc_cpu_frac", coll.Runtime.GCCPUFrac, 0)
	res.set("runtime.collector.heap_peak_mb", coll.Runtime.HeapPeakMB, 0)
	res.set("runtime.collector.gc_pause_max_ms", coll.Runtime.GCPauseMax, 0)
	res.note("counters: %s", final.bus)
	res.note("counters: %s", final.fwd)
	res.note("counters: %s", coll.Collector)
	res.note("counters: bus shed %d, relay shed %d (%d dropped frames), collector duplicates %d events",
		final.bus.Dropped, final.fwd.Shed, final.fwd.DroppedFrames, coll.Collector.DupEvents)
	if !p.tracing {
		return
	}

	queue, _ := pairInOrder(p.recorded.take(), p.delivered.take())
	transit, _ := pairInOrder(p.forwarded.take(), commits)
	p.mu.Lock()
	for _, s := range coll.Spans {
		s.Start, s.End = p.local(s.Start), p.local(s.End)
		p.spans = append(p.spans, s)
	}
	for _, w := range queue {
		p.spans = append(p.spans, span{Name: "wait.bus.queue", Trace: w.src, Start: w.from, End: w.to})
	}
	for _, w := range transit {
		p.spans = append(p.spans, span{Name: "wait.relay.transit", Trace: w.src, Start: w.from, End: w.to})
	}
	p.mu.Unlock()
	res.spans = p.takeSpans()

	byName := map[string]*layerTime{}
	handlers := &layerTime{Name: "handler"}
	for _, r := range summarizeSpans(res.spans) {
		byName[r.Name] = r
		if strings.HasPrefix(r.Name, "handler.") {
			handlers.Busy += r.Busy
			handlers.Durs = append(handlers.Durs, r.Durs...)
			res.note("layer %s: %d sessions, busy %.3f s, p50 %.1f us", r.Name, r.Count, float64(r.Busy)/1e9, quantile(r.Durs, 0.5)/1e3)
		}
	}
	get := func(name string) *layerTime {
		if r := byName[name]; r != nil {
			return r
		}
		return &layerTime{Name: name}
	}
	busy := func(name string) { res.set(name+".busy_s", float64(get(name).Busy)/1e9, get(name).Count) }
	q := func(metric, name string, q, scale float64) {
		r := get(name)
		res.set(metric, quantile(r.Durs, q)/scale, len(r.Durs))
	}
	res.set("handler.busy_s", float64(handlers.Busy)/1e9, len(handlers.Durs))
	res.set("handler.p50_us", quantile(handlers.Durs, 0.5)/1e3, len(handlers.Durs))
	res.set("handler.p99_us", quantile(handlers.Durs, 0.99)/1e3, len(handlers.Durs))
	q("bus.record_p99_us", "bus.record", 0.99, 1e3)
	q("bus.queue_wait_p50_ms", "wait.bus.queue", 0.5, 1e6)
	q("bus.queue_wait_p99_ms", "wait.bus.queue", 0.99, 1e6)
	busy("pipeline")
	busy("wal.journal")
	q("wal.spool.append_p99_us", "wal.spool", 0.99, 1e3)
	busy("relay.forward")
	q("relay.forward.p99_us", "relay.forward", 0.99, 1e3)
	q("relay.transit_p50_ms", "wait.relay.transit", 0.5, 1e6)
	q("relay.transit_p99_ms", "wait.relay.transit", 0.99, 1e6)
	busy("evstore")
	q("evstore.commit_p99_us", "evstore", 0.99, 1e3)
	busy("stream")
	q("stream.p99_us", "stream", 0.99, 1e3)
	busy("obs.trace")
}

func perEvent(bytes, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(bytes) / float64(events)
}

// checkLive verifies the run's outputs: exact event accounting end to end,
// one Connect and one Close per session, no source the online analyzer
// calls an exploiter, and live events inside the store window.
func checkLive(res *result, outs []outcome, final counts, topo *topology) {
	b, f, c := final.bus, final.fwd, final.coll
	emitted := b.Enqueued + b.Dropped
	unacked := uint64(f.SpoolEvents + f.Pending)
	res.check("accounting",
		emitted == c.Committed+b.Dropped+f.Shed+unacked &&
			final.farm.Total() == b.Delivered && b.Delivered == b.Enqueued &&
			c.Committed == f.EventsAcked && c.Committed == uint64(c.Stored) && c.Committed == c.Collector.Events,
		"emitted %d = committed %d + bus shed %d + relay shed %d + unacked %d; farm stats %d, delivered %d; acked %d, store %d, collector %d",
		emitted, c.Committed, b.Dropped, f.Shed, unacked, final.farm.Total(), b.Delivered, f.EventsAcked, c.Stored, c.Collector.Events)

	reached := uint64(0)
	for _, o := range outs {
		if o.src.IsValid() {
			reached++
		}
	}
	res.check("sessions", final.farm.Connects == reached && final.farm.Closes == reached,
		"generator reached the farm %d times; farm connects %d, closes %d", reached, final.farm.Connects, final.farm.Closes)
	res.check("farm errors", topo.sessionErrs.Load() == 0, "%d sessions logged as failed by the farm", topo.sessionErrs.Load())

	// Scans and login attempts are not exploitation.
	res.check("verdicts", len(c.Exploiting) == 0, "%d of %d live sources exploiting %v", len(c.Exploiting), c.Live, c.Exploiting)
	res.check("window", c.Live > 0 && c.InWindow == c.Live, "%d of %d live sources active in the store window since the collector started", c.InWindow, c.Live)
}
