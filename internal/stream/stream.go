// Package stream performs the paper's post-hoc analyses — behavioural
// classification (Section 4.3) and adversary clustering (Section 6.1) —
// online, on the ingest path. An Analyzer is a core.BatchSink that keeps
// a bounded LRU of per-source state: a term-frequency vector of the
// source's normalised actions and its current classify.Behavior. Every
// delivered batch re-classifies each touched source incrementally
// (classify.Fold — no snapshot, no store re-scan) and re-assigns
// its vector to a behaviour cluster by nearest-centroid matching,
// with the centroid set periodically consolidated by a mini Ward re-fit
// (see centroids.go). Transitions — a scout escalating to exploitation,
// a vector seeding a new cluster, a source migrating between clusters —
// emit typed alerts into a bounded ring that the admin plane serves at
// /alerts and /clusters.
//
// The analyzer sits behind the event bus, so honeypot sessions never
// block on it; its cost is bounded by the throughput gate in CI
// (BenchmarkStreamIngest: ingest with the sink attached must stay
// within 2× of detached ingest).
package stream

import (
	"net/netip"
	"strconv"
	"sync"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/core"
)

// Bounds on the analyzer's state and cadence.
const (
	// maxActionsPerSource caps how many action tokens count into one
	// source's vector, mirroring evstore's per-activity action bound so
	// a chatty bot cannot grow state without limit.
	maxActionsPerSource = 512
	// maxSources bounds the per-source LRU; the least recently active
	// source is evicted when a new one would exceed it.
	maxSources = 65536
	// maxAlerts bounds the retained alert history.
	maxAlerts = 1024
	// maxVocab bounds the action vocabulary; later distinct actions
	// share one overflow dimension.
	maxVocab = 4096
	// clusterRadius is the Euclidean distance beyond which a vector
	// seeds a new cluster instead of joining its nearest centroid, and
	// also the Ward cut height of the periodic re-fit.
	clusterRadius = 0.5
	// refitEvery is the batch cadence of the mini Ward re-fit over the
	// centroid set.
	refitEvery = 256
	// maxClusters bounds the centroid set.
	maxClusters = 64
)

// Options configures an Analyzer. It has no fields: every bound is one
// of the constants above.
type Options struct{}

// source is the per-source online state. Sources are keyed by address
// (not address:port — one attacker, one vector, as in the offline
// pipeline).
type source struct {
	addr     netip.Addr
	behavior classify.Behavior
	// counts is the sparse action term-count vector over the shared
	// vocabulary; total is the sequence length (the TF denominator);
	// sumSq is Σ count², kept incrementally so the vector's squared TF
	// norm (sumSq/total²) costs nothing at assignment time.
	counts map[int]int
	total  int
	sumSq  int
	// dbms of the most recent event, carried into alerts.
	dbms    string
	cluster int // assigned cluster id, -1 before the first assignment
	dirty   bool
	touched bool
}

// Analyzer is the streaming sink. It implements core.Sink,
// core.BatchSink and core.Flusher.
type Analyzer struct {
	mu         sync.Mutex
	sources    *core.LRU[netip.Addr, source]
	batch      []*source // sources touched by the in-flight batch
	scratch    []term    // reused per-assignment term snapshot
	asn        *assigner
	alerts     *alertRing
	sinceRefit int
	lastTime   time.Time // most recently ingested event's timestamp

	// Counters for Stats; guarded by mu.
	events   uint64
	batches  uint64
	evicted  uint64
	assignsN uint64
}

// Compile-time checks: the analyzer satisfies the consumer contract.
var (
	_ core.Sink      = (*Analyzer)(nil)
	_ core.BatchSink = (*Analyzer)(nil)
	_ core.Flusher   = (*Analyzer)(nil)
)

// New returns an Analyzer.
func New(Options) *Analyzer {
	return &Analyzer{
		sources:    core.NewLRU[netip.Addr, source](maxSources),
		asn:        newAssigner(),
		alerts:     newAlertRing(maxAlerts),
		sinceRefit: refitEvery,
	}
}

// Record implements core.Sink: a batch of one.
func (a *Analyzer) Record(e core.Event) { _ = a.RecordBatch([]core.Event{e}) }

// RecordBatch implements core.BatchSink: fold the whole batch under one
// lock acquisition, then run one assignment pass over the touched
// sources.
func (a *Analyzer) RecordBatch(events []core.Event) error {
	a.mu.Lock()
	for _, e := range events {
		a.ingest(e)
	}
	a.settle()
	a.mu.Unlock()
	return nil
}

// Flush implements core.Flusher. The analyzer holds no asynchronous
// buffers — state is current the moment RecordBatch returns — so Flush
// only takes the lock to publish a happens-before edge to the caller.
func (a *Analyzer) Flush() {
	a.mu.Lock()
	a.mu.Unlock() //nolint:staticcheck // intentional: memory barrier only
}

// ingest folds one event into its source's state. Caller holds mu.
func (a *Analyzer) ingest(e core.Event) {
	a.events++
	a.lastTime = e.Time
	addr := e.Src.Addr()
	s := a.sources.Get(addr)
	if s == nil {
		var evicted *source
		s, evicted = a.sources.Add(addr, source{addr: addr, cluster: -1})
		if evicted != nil {
			a.release(evicted)
		}
	}
	if !s.touched {
		s.touched = true
		a.batch = append(a.batch, s)
	}
	s.dbms = e.Honeypot.DBMS

	if b := classify.Fold(s.behavior, e.Kind, e.Honeypot.DBMS, e.Command, e.Raw); b > s.behavior {
		if b == classify.Exploiting {
			a.alerts.push(Alert{
				Kind:   EscalationAlert,
				Time:   e.Time,
				Src:    addr.String(),
				DBMS:   e.Honeypot.DBMS,
				From:   s.behavior.String(),
				To:     b.String(),
				Action: e.Command,
			})
		}
		s.behavior = b
	}
	if e.Kind == core.EventCommand && s.total < maxActionsPerSource {
		if s.counts == nil {
			s.counts = make(map[int]int, 4)
		}
		i := a.asn.index(e.Command)
		s.sumSq += 2*s.counts[i] + 1 // (c+1)² − c²
		s.counts[i]++
		s.total++
		s.dirty = true
	}
}

// settle runs the end-of-batch assignment pass: every touched source
// whose vector changed is (re-)assigned to a centroid, and the refit
// countdown advances. Caller holds mu.
func (a *Analyzer) settle() {
	if len(a.batch) == 0 {
		return
	}
	a.batches++
	for _, s := range a.batch {
		s.touched = false
		if !s.dirty || s.total == 0 {
			continue
		}
		s.dirty = false
		a.assign(s)
	}
	a.batch = a.batch[:0]

	a.sinceRefit--
	if a.sinceRefit <= 0 {
		a.sinceRefit = refitEvery
		a.applyRemap(a.asn.refit())
	}
}

// assign places one source with a centroid and emits cluster alerts for
// the resulting transition, if any. Caller holds mu.
func (a *Analyzer) assign(s *source) {
	inv := 1 / float64(s.total)
	a.scratch = a.scratch[:0]
	for i, n := range s.counts {
		a.scratch = append(a.scratch, term{i, float64(n) * inv})
	}
	id, isNew := a.asn.assign(a.scratch, float64(s.sumSq)*inv*inv)
	a.assignsN++
	if id == s.cluster {
		return
	}
	old := s.cluster
	if old >= 0 {
		if c := a.asn.byID(old); c != nil && c.members > 0 {
			c.members--
		}
	}
	s.cluster = id
	if c := a.asn.byID(id); c != nil {
		c.members++
	}
	lastTime := a.lastTime
	if isNew {
		a.alerts.push(Alert{
			Kind: NewClusterAlert, Time: lastTime, Src: s.addr.String(),
			DBMS: s.dbms, Cluster: id,
		})
	}
	if old >= 0 {
		a.alerts.push(Alert{
			Kind: ClusterShiftAlert, Time: lastTime, Src: s.addr.String(),
			DBMS: s.dbms, From: strconv.Itoa(old), To: strconv.Itoa(id), Cluster: id,
		})
	}
}

// applyRemap rewrites per-source cluster ids after a refit merged
// centroids. Merges are consolidation of one behaviour group, not a
// source changing behaviour, so no shift alerts fire. Caller holds mu.
func (a *Analyzer) applyRemap(remap map[int]int) {
	if len(remap) == 0 {
		return
	}
	for _, s := range a.sources.All() {
		if to, ok := remap[s.cluster]; ok {
			s.cluster = to
		}
	}
}

// release settles the books for a source the LRU evicted: it gives up
// its cluster membership, and it leaves the settle pass of a batch that
// touched it, so no centroid gains a member that no live source holds.
// Caller holds mu.
func (a *Analyzer) release(s *source) {
	s.dirty = false
	if s.cluster >= 0 {
		if c := a.asn.byID(s.cluster); c != nil && c.members > 0 {
			c.members--
		}
	}
	a.evicted++
}
