// Command dbsim runs the simulated 20-day honeypot deployment and writes
// the captured traffic as per-honeypot log files (the paper's published
// dataset format), then loads them back through the conversion pipeline
// and prints a dataset summary — exercising the full Figure 1 flow:
// honeypots -> logs -> conversion -> enrichment -> queryable store.
//
// Usage:
//
//	dbsim [-seed N] [-scale N] [-logs DIR] [-bus-policy block|drop|adaptive] [-forward SPEC]
//
// The default block policy is lossless and keeps the dataset a pure
// function of the seed; -bus-policy adaptive exercises the per-source
// shedding a live farm would use under a hostile flood. For the same
// reason dbsim first removes the *.json log files an earlier run left in
// -logs: the log writer appends to existing files.
//
// With -forward "addrs=a:7100|b:7100,token=SECRET[,farm=NAME]" the
// captured events also stream to a dbcollect collector tier over the
// relay protocol. The forwarder runs
// in blocking (lossless) mode here: a finite capture should arrive
// complete, so dbsim waits for spool space rather than shedding. Adding
// -store DIR backs that spool with a write-ahead log under DIR/spool,
// so even a killed simulation finishes its delivery on the next run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"

	"decoydb/internal/bus"
	"decoydb/internal/cliflags"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/obs"
	"decoydb/internal/pipeline"
	"decoydb/internal/relay"
	"decoydb/internal/simnet"
	"decoydb/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbsim: ")
	var (
		seed  = flag.Int64("seed", 1, "simulation seed")
		scale = flag.Int("scale", simnet.DefaultScale, "brute-force volume divisor (1 = paper volume, slow)")
		dir   = flag.String("logs", "honeypot-logs", "directory for honeypot log files")
	)
	busFlags := cliflags.RegisterBus(flag.CommandLine, "block")
	fwdFlag := cliflags.RegisterForward(flag.CommandLine)
	storeFlag := cliflags.RegisterStore(flag.CommandLine)
	adminFlag := cliflags.RegisterAdmin(flag.CommandLine)
	streamFlag := cliflags.RegisterStream(flag.CommandLine)
	flag.Parse()

	busOpts, err := busFlags.Options()
	if err != nil {
		log.Fatal(err)
	}
	if busOpts.Policy != bus.Block {
		log.Printf("warning: -bus-policy %s can shed events; the dataset is no longer a pure function of the seed", busOpts.Policy)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := clearLogs(*dir); err != nil {
		log.Fatal(err)
	}
	lw, err := pipeline.NewLogWriter(*dir)
	if err != nil {
		log.Fatal(err)
	}
	sinks := []core.Sink{lw}
	var spool *wal.Log
	if fwdFlag.Enabled() {
		if spool, err = storeFlag.Open("spool", log.Printf); err != nil {
			log.Fatal(err)
		}
	}
	// SpoolWAL is an interface: assign only when the concrete log exists,
	// or a nil *wal.Log would read as a present (broken) log.
	fwdBase := relay.ForwardOptions{Farm: "dbsim", Block: true, Logf: log.Printf}
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
		// mid-simulation — the same live reload path a real farm uses.
		defer fwdFlag.WatchSIGHUP(fwd, fwdBase, log.Printf)()
	}

	// With -stream, the online analyzer rides the bus and classifies the
	// simulated population as it arrives — the same path a live farm
	// uses, driven by reproducible traffic.
	analyzer := streamFlag.Analyzer()
	if analyzer != nil {
		sinks = append(sinks, analyzer)
	}

	// With -admin, the simulation exposes the same observability plane a
	// live farm would: the trace ring and a kind-count sink ride the bus,
	// the bus itself registers through the OnBus hook once simnet builds
	// it. Useful for watching a long full-scale run converge.
	var onBus func(*bus.Bus)
	if adminFlag.Enabled() {
		traces := obs.NewTraceRing(obs.TraceOptions{Verdicts: cliflags.TraceVerdicts(analyzer)})
		kinds := &bus.StatsSink{}
		sinks = append(sinks, traces, kinds)
		reg := obs.NewRegistry()
		reg.Register(obs.KindSource(kinds))
		if spool != nil {
			reg.Register(obs.WALSource("spool", spool))
		}
		if fwd != nil {
			reg.Register(obs.ForwardSource(fwd))
		}
		onBus = func(b *bus.Bus) { reg.Register(obs.BusSource(b)) }
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

	fmt.Printf("running 20-day deployment simulation (seed=%d scale=1/%d)...\n", *seed, *scale)
	res, err := simnet.Run(ctx, simnet.Config{
		Seed: *seed, Scale: *scale, Bus: busOpts, OnBus: onBus,
	}, sinks...)
	if err != nil {
		lw.Close()
		log.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		log.Fatal(err)
	}
	if fwd != nil {
		// simnet.Run already flushed the forwarder; Close just reports
		// whether anything non-recoverable happened.
		if err := fwd.Close(); err != nil {
			log.Printf("relay: %v", err)
		}
		fmt.Printf("forwarded: %s\n", fwd.Stats())
	}
	if spool != nil {
		if err := spool.Close(); err != nil {
			log.Printf("spool: %v", err)
		}
	}
	fmt.Printf("simulation done in %v: %d sessions (%d torn connections)\n",
		res.Elapsed.Round(1e6), res.Sessions, res.Errors)
	fmt.Printf("transport: %s\n", res.Bus)
	fmt.Printf("population: %d actors, %d brute-forcers, %d exploiters, %d institutional\n",
		len(res.Population.Actors), len(res.Population.BruteForcers),
		len(res.Population.Exploiters), len(res.Population.Institutional))
	if analyzer != nil {
		st := analyzer.Stats()
		fmt.Printf("streaming: %d sources tracked in %d clusters; %d alerts (%d escalations, %d new clusters, %d shifts)\n",
			st.Sources, st.Clusters, st.Alerts, st.Escalations, st.NewClusters, st.Shifts)
	}

	store, err := pipeline.Load(*dir, core.ExperimentStart, core.ExperimentDays, geoip.Default())
	if err != nil {
		log.Fatal(err)
	}
	applied := store.MarkInstitutional(res.Population.Institutional)
	if applied == 0 && len(res.Population.Institutional) > 0 {
		log.Printf("warning: institutional list (%d addresses) does not overlap the capture",
			len(res.Population.Institutional))
	}
	snap := store.Snapshot()
	fmt.Printf("pipeline reload: %d events, %d unique sources, %d total logins\n",
		snap.Events(), snap.UniqueIPs(evstore.Query{}), snap.Logins(evstore.Query{}))
	fmt.Printf("logs written to %s (run dbreport for the full table/figure report)\n", *dir)
}

// clearLogs removes the log files an earlier run left in dir. The log
// writer appends to what it finds, and a simulation's capture must be a
// function of its seed, so that its pipeline reload counts this run's
// events alone.
func clearLogs(dir string) error {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
