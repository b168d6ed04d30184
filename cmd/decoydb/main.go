// Command decoydb serves real database honeypots on live TCP ports — the
// deployable half of the system. Each enabled protocol gets a listener;
// every connection is logged in the pipeline's JSON format, ready for
// dbreport-style analysis.
//
// Events flow from sessions through the sharded async event bus
// (internal/bus) into the log writer and a stats sink, so a flood on one
// listener cannot stall the others: backpressure policy is configurable
// (-bus-policy block|drop|adaptive) and transport counters are logged
// periodically (-statsevery).
//
// With -forward "addrs=a:7100|b:7100,token=SECRET" the farm also
// streams every event to a dbcollect collector tier over the relay
// protocol: batched, acknowledged, spooled across collector outages,
// and shed with per-source accounting when the spool fills — a
// collector outage costs bounded memory, never a stalled honeypot
// session. With several collector addresses the farm picks one by
// rendezvous hash of its farm name and fails over down the ranking when
// it dies.
//
// With -store DIR the farm becomes durable: every event is journaled to
// a write-ahead log under DIR/journal before the process acknowledges
// it, and the relay spool is backed by DIR/spool — killing the process
// (even SIGKILL) and restarting it resumes retransmission from disk,
// and the collector's cross-restart dedup keeps replays from ever being
// double counted.
//
// Usage:
//
//	decoydb [-listen 0.0.0.0] [-services mysql,redis,...] [-logs DIR] [-offset N] [-forward SPEC] [-store DIR]
//
// With -offset (e.g. 10000), services bind to port+offset so the farm can
// run unprivileged: MySQL on 13306, Redis on 16379, and so on.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/cliflags"
	"decoydb/internal/core"
	"decoydb/internal/obs"
	"decoydb/internal/pipeline"
	"decoydb/internal/relay"
	"decoydb/internal/simnet"
	"decoydb/internal/wal"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("decoydb: ")
	var (
		listen    = flag.String("listen", "127.0.0.1", "address to bind")
		services  = flag.String("services", "mysql,mssql,postgres,redis,elastic,mongodb", "comma-separated honeypot services (also: mariadb, couchdb)")
		dir       = flag.String("logs", "decoydb-logs", "directory for honeypot log files")
		offset    = flag.Int("offset", 10000, "port offset added to each service's default port (0 = real ports, needs privileges)")
		fake      = flag.Bool("fakedata", true, "seed medium/high honeypots with bait data")
		seed      = flag.Int64("seed", 42, "seed for bait data generation")
		statsEach = flag.Duration("statsevery", time.Minute, "interval between transport stats log lines (0 = off)")
	)
	// A live farm sheds load rather than letting a hostile flood stall
	// every honeypot behind a slow disk; adaptive shedding caps the
	// flooding source while keeping everyone else lossless.
	busFlags := cliflags.RegisterBus(flag.CommandLine, "adaptive")
	fwdFlag := cliflags.RegisterForward(flag.CommandLine)
	storeFlag := cliflags.RegisterStore(flag.CommandLine)
	adminFlag := cliflags.RegisterAdmin(flag.CommandLine)
	streamFlag := cliflags.RegisterStream(flag.CommandLine)
	flag.Parse()

	busOpts, err := busFlags.Options()
	if err != nil {
		log.Fatal(err)
	}

	enabled := map[string]bool{}
	for _, s := range strings.Split(*services, ",") {
		enabled[strings.TrimSpace(s)] = true
	}

	lw, err := pipeline.NewLogWriter(*dir)
	if err != nil {
		log.Fatal(err)
	}

	stats := &bus.StatsSink{}
	sinks := []core.Sink{lw, stats}

	// With -store, the capture journal rides the bus like any other sink
	// and the relay spool journals frames before they enter its
	// retransmission window — so a crashed farm resumes from disk.
	journal, err := storeFlag.Open("journal", log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	if journal != nil {
		sinks = append(sinks, wal.NewSink(journal))
	}
	var spool *wal.Log
	if fwdFlag.Enabled() {
		if spool, err = storeFlag.Open("spool", log.Printf); err != nil {
			log.Fatal(err)
		}
	}

	// Live forwarding must never stall sessions: leave Block unset so a
	// collector outage degrades to bounded spooling, then accounted
	// shedding. SpoolWAL is an interface: assign only when the concrete
	// log exists, or a nil *wal.Log would read as a present (broken) log.
	fwdBase := relay.ForwardOptions{Farm: "live", Logf: log.Printf}
	if spool != nil {
		fwdBase.SpoolWAL = spool
	}
	fwd, err := fwdFlag.Sink(fwdBase)
	if err != nil {
		log.Fatal(err)
	}
	if fwd != nil {
		sinks = append(sinks, fwd)
		// SIGHUP re-reads -forward-file and re-ranks the collector tier
		// live; with plain -forward the reload re-parses the same spec
		// (a deliberate no-op) so the handler is always safe to arm.
		defer fwdFlag.WatchSIGHUP(fwd, fwdBase, log.Printf)()
	}
	// The streaming analyzer and the trace ring ride the bus like any
	// other sink, so live classification and span updates cost honeypot
	// sessions nothing beyond the existing batch delivery.
	analyzer := streamFlag.Analyzer()
	if analyzer != nil {
		sinks = append(sinks, analyzer)
	}
	var traces *obs.TraceRing
	if adminFlag.Enabled() {
		traces = obs.NewTraceRing(obs.TraceOptions{Verdicts: cliflags.TraceVerdicts(analyzer)})
		sinks = append(sinks, traces)
	}
	evbus := bus.New(busOpts, sinks...)

	// The admin plane scrapes each subsystem's Stats() on demand: no
	// hot-path cost, everything visible.
	if adminFlag.Enabled() {
		reg := obs.NewRegistry()
		reg.Register(obs.BusSource(evbus))
		reg.Register(obs.KindSource(stats))
		if journal != nil {
			reg.Register(obs.WALSource("journal", journal))
		}
		if spool != nil {
			reg.Register(obs.WALSource("spool", spool))
		}
		if fwd != nil {
			reg.Register(obs.ForwardSource(fwd))
		}
		srvOpts := obs.ServerOptions{Registry: reg, Traces: traces, Stream: analyzer, Logf: log.Printf}
		if fwd != nil {
			srvOpts.ReloadForward = fwd.SetEndpoints
		}
		admin, err := adminFlag.Start(srvOpts)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	farm := core.NewFarm(core.RealClock{}, evbus, core.FarmOptions{})

	// One live instance per enabled service, using the same handler
	// constructors as the full deployment.
	deploy := &core.Deployment{}
	for _, dbms := range []string{core.MySQL, core.MSSQL, core.Postgres, core.Redis, core.Elastic, core.MongoDB, core.MariaDB, core.CouchDB} {
		if !enabled[dbms] {
			continue
		}
		info := core.Info{
			DBMS: dbms, Port: core.DefaultPort(dbms) + *offset,
			Config: core.ConfigDefault, Group: core.GroupSingle, VM: "live",
		}
		switch dbms {
		case core.Elastic, core.Redis, core.CouchDB:
			info.Level = core.Medium
		case core.MongoDB:
			info.Level = core.High
		default:
			info.Level = core.Low
		}
		if *fake && (dbms == core.Redis || dbms == core.MongoDB || dbms == core.CouchDB) {
			info.Config = core.ConfigFakeData
		}
		deploy.Instances = append(deploy.Instances, info)
	}
	handlers := simnet.BuildHoneypots(deploy, *seed)

	for _, info := range deploy.Instances {
		hp := &core.Honeypot{Info: info, Handler: handlers[info.ID()]}
		addr, err := farm.Listen(ctx, fmt.Sprintf("%s:%d", *listen, info.Port), hp)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%s honeypot (%s interaction) listening on %s", info.DBMS, info.Level, addr)
	}
	log.Printf("logging to %s via %d-shard bus (%s policy) — ctrl-c to stop", *dir, evbus.Stats().Shards, busOpts.Policy)
	if fwd != nil {
		log.Printf("forwarding events to collector (farm %q)", fwd.Stats().Farm)
	}
	if journal != nil {
		log.Printf("durable capture under %s — %s", storeFlag.Dir(), journal.Stats())
	}

	if *statsEach > 0 {
		go func() {
			t := time.NewTicker(*statsEach)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					log.Printf("%s", evbus.Stats())
					log.Printf("%s", stats.Counts())
					if fwd != nil {
						log.Printf("%s", fwd.Stats())
					}
				}
			}
		}()
	}

	<-ctx.Done()
	log.Print("shutting down")
	farm.Shutdown() // waits for sessions, then flushes the bus
	if err := evbus.Close(); err != nil {
		log.Printf("event transport: %v", err)
	}
	log.Printf("final %s", evbus.Stats())
	log.Printf("final %s", stats.Counts())
	if fwd != nil {
		// Give spooled frames one last chance to reach the collector,
		// then report exactly what made it and what did not.
		fwd.Flush()
		if err := fwd.Close(); err != nil {
			log.Printf("relay: %v", err)
		}
		log.Printf("final %s", fwd.Stats())
	}
	// The forwarder journals its unframed tail during Close, so the spool
	// WAL must outlive it; same order on the capture journal, which the
	// bus flushed above.
	if spool != nil {
		log.Printf("final spool %s", spool.Stats())
		if err := spool.Close(); err != nil {
			log.Printf("spool: %v", err)
		}
	}
	if journal != nil {
		log.Printf("final journal %s", journal.Stats())
		if err := journal.Close(); err != nil {
			log.Printf("journal: %v", err)
		}
	}
	if err := lw.Close(); err != nil {
		log.Printf("log writer: %v (%d write failures)", err, lw.ErrCount())
	}
}
