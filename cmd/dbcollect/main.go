// Command dbcollect is the central collector for a fleet of honeypot
// farms: it listens for relay connections from decoydb/dbsim -forward,
// authenticates them with a shared token, and ingests every forwarded
// event into a sharded event store — the aggregation half of the
// paper's pipeline, run on the analysis host instead of on each
// exposed VM.
//
// With -store DIR the store is journaled to a write-ahead log under
// DIR/collector: every ingested batch hits disk before it is
// acknowledged into the aggregates, and restarting dbcollect over the
// same -store recovers the full capture — including the per-farm dedup
// marks, so farms retransmitting across the restart are never double
// counted.
//
// On SIGINT/SIGTERM (or after -runfor, or if the listener dies) it
// stops serving, flushes every buffering sink, and dumps the capture
// summary dbreport prints for -store and -live — farms, event totals,
// unique sources and top credentials — so a collection session always
// ends with the artefact the report tool produces, even on an error
// path.
//
// In a multi-collector tier (farms spread by rendezvous hashing over
// several dbcollect processes), -peers lists the other collectors'
// admin addresses: /query on this collector then merges every peer's
// results, so dbreport -live pointed anywhere in the tier sees one
// logical capture.
//
// Usage:
//
//	dbcollect -token SECRET [-listen :7100] [-store DIR] [-days 20] [-runfor 0] [-statsevery 1m]
//	dbcollect -token SECRET -admin :9200 -peers host2:9200,host3:9200
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/cliflags"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/obs"
	"decoydb/internal/relay"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("dbcollect: ")
	var (
		listen    = flag.String("listen", "127.0.0.1:7100", "address to accept relay connections on")
		token     = flag.String("token", "", "shared secret forwarders must present (required)")
		days      = flag.Int("days", core.ExperimentDays, "capture window length in days for the event store")
		runFor    = flag.Duration("runfor", 0, "stop after this long (0 = until signal)")
		statsEach = flag.Duration("statsevery", time.Minute, "interval between stats log lines (0 = off)")
		retain    = flag.Duration("retain", 0, "journal retention: expire -store segments older than this, and compact acknowledged batches after the final snapshot dump (0 = keep everything)")
	)
	storeFlag := cliflags.RegisterStore(flag.CommandLine)
	adminFlag := cliflags.RegisterAdmin(flag.CommandLine)
	peersFlag := cliflags.RegisterPeers(flag.CommandLine)
	streamFlag := cliflags.RegisterStream(flag.CommandLine)
	flag.Parse()
	if *token == "" {
		log.Fatal("-token is required: forwarders authenticate with it")
	}
	if peersFlag.Enabled() && !adminFlag.Enabled() {
		log.Fatal("-peers requires -admin: the merged /query is served on the admin plane")
	}

	// The store shares the bus's sharding so concurrent farm connections
	// ingest without a global lock; a StatsSink rides along for the
	// periodic log line.
	store := evstore.New(core.ExperimentStart, *days, geoip.Default())
	stats := &bus.StatsSink{}

	// With -store, attach the journal before serving: replay rebuilds
	// both the aggregates of the previous process and — from the source
	// tags journaled with each relayed batch — the per-farm dedup marks,
	// so retransmits that cross the restart are recognised as duplicates.
	journal, err := storeFlag.Open("collector", log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	farms := map[string]relay.FarmMark{}
	if journal != nil {
		replayed, err := store.AttachWAL(journal, func(tag []byte) {
			if farm, epoch, seq, ok := relay.DecodeSourceTag(tag); ok {
				farms[farm] = relay.FarmMark{Epoch: epoch, LastSeq: seq}
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		if replayed > 0 {
			log.Printf("recovered %d events from %s (%d farm marks)", replayed, storeFlag.Dir(), len(farms))
		}
		log.Printf("%s", journal.Stats())
	}

	// With -stream, the online analyzer consumes the aggregated tier-wide
	// feed — the natural place to watch for escalations across every
	// farm at once. With -admin, a trace ring joins the collector's sinks
	// (spans per relayed session) and the admin plane serves the live
	// store over /query next to /metrics and /statusz.
	analyzer := streamFlag.Analyzer()
	var traces *obs.TraceRing
	collSinks := []core.Sink{store, stats}
	if analyzer != nil {
		collSinks = append(collSinks, analyzer)
	}
	if adminFlag.Enabled() {
		traces = obs.NewTraceRing(obs.TraceOptions{Verdicts: cliflags.TraceVerdicts(analyzer)})
		collSinks = append(collSinks, traces)
	}
	coll, err := relay.NewCollector(relay.CollectorOptions{
		Token: *token, Farms: farms, Logf: log.Printf,
	}, collSinks...)
	if err != nil {
		log.Fatal(err)
	}
	if adminFlag.Enabled() {
		reg := obs.NewRegistry()
		reg.Register(obs.CollectorSource(coll))
		reg.Register(obs.KindSource(stats))
		reg.Register(obs.StoreSource(store))
		if journal != nil {
			reg.Register(obs.WALSource("collector", journal))
		}
		// With -peers, the tier fan-in takes the query handler's place:
		// /query merges this store with every peer's, so any collector
		// in the tier answers for the whole capture.
		qh := obs.NewQueryHandler(obs.QueryOptions{Store: store})
		var query http.Handler = qh
		if peersFlag.Enabled() {
			fi := obs.NewFanIn(obs.FanInOptions{Local: qh, Peers: peersFlag.List(), Logf: log.Printf})
			reg.Register(fi)
			query = fi
			log.Printf("tier fan-in over %d peers: %v", len(peersFlag.List()), peersFlag.List())
		}
		admin, err := adminFlag.Start(obs.ServerOptions{
			Registry: reg,
			Traces:   traces,
			Stream:   analyzer,
			Query:    query,
			Logf:     log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}

	done := make(chan error, 1)
	go func() { done <- coll.ListenAndServe(*listen) }()
	log.Printf("collecting on %s — SIGINT/SIGTERM to stop and dump", *listen)

	if *statsEach > 0 {
		go func() {
			t := time.NewTicker(*statsEach)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					log.Printf("%s", coll.Stats())
					log.Printf("%s", stats.Counts())
					if journal != nil {
						log.Printf("%s", journal.Stats())
					}
				}
			}
		}()
	}

	// Age-based journal retention: segments older than -retain expire on
	// a timer, bounding the disk a long-running collector consumes. The
	// expired batches leave the replay window (the aggregates they built
	// live on in the store until the process ends), which is the explicit
	// trade the flag opts into.
	if *retain > 0 && journal != nil {
		interval := *retain / 4
		if interval < time.Second {
			interval = time.Second
		}
		if interval > time.Hour {
			interval = time.Hour
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					removed, err := journal.CompactBefore(time.Now().Add(-*retain))
					if err != nil {
						log.Printf("retention: %v", err)
					} else if removed > 0 {
						log.Printf("retention: expired %d segments — %s", removed, journal.Stats())
					}
				}
			}
		}()
	}

	// Wait for a stop signal or a listener failure. Either way the
	// session ends the same: flush every buffering sink, dump the
	// snapshot, close the journal — a capture must never evaporate just
	// because the exit path was the unhappy one.
	var serveErr error
	select {
	case serveErr = <-done:
		if serveErr != nil {
			log.Printf("serve: %v — dumping what was captured", serveErr)
		}
	case <-ctx.Done():
		log.Print("shutting down")
	}
	if err := coll.Close(); err != nil {
		log.Printf("collector: %v", err)
	}
	if serveErr == nil {
		if err := <-done; err != nil {
			serveErr = err
			log.Printf("serve: %v", err)
		}
	}

	// Quiesce point: every sink that buffers (the journaled store syncs
	// its WAL here) drains before the snapshot is rendered.
	for _, s := range []core.Sink{store, stats} {
		if f, ok := s.(core.Flusher); ok {
			f.Flush()
		}
	}
	cst := coll.Stats()
	log.Printf("final %s", cst)
	// The zero tier always parses, so Respond cannot fail here.
	q, _ := obs.NewQueryHandler(obs.QueryOptions{Store: store}).Respond(obs.QueryRequest{Creds: 10})
	for _, t := range obs.CaptureTables(&cst, &q) {
		fmt.Printf("=== Collector — %s ===\n%s\n", t.Title, t)
	}
	if journal != nil {
		// The snapshot dump above is the session's durable artefact; with
		// -retain the journal batches it covers are now compactable, so a
		// restart does not re-replay a capture that was already reported.
		if *retain > 0 {
			if removed, err := journal.Compact(journal.LastSeq()); err != nil {
				log.Printf("compact after dump: %v", err)
			} else {
				log.Printf("compact after dump: %d segments removed", removed)
			}
		}
		log.Printf("final %s", journal.Stats())
		if err := journal.Close(); err != nil {
			log.Printf("journal: %v", err)
		}
	}
	if serveErr != nil {
		os.Exit(1)
	}
}
