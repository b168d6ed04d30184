package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"sync/atomic"
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

// fakeDataSeed is cmd/decoydb's default -seed for the honeypots' bait
// data. It is part of the program's configuration, not of the workload:
// the benchmark's seed only shapes the traffic.
const fakeDataSeed = 42

// farmServices are the listeners the farm serves: cmd/decoydb's default
// -services.
var farmServices = []string{core.MySQL, core.MSSQL, core.Postgres, core.Redis, core.Elastic, core.MongoDB}

// topology is a collector process and, in this process, a farm forwarding
// to it over loopback TCP, wired the way cmd/dbcollect and cmd/decoydb
// wire them, with the probe's wrappers around the calls between layers.
type topology struct {
	dir  string
	p    *probe
	coll *collectorProc

	// Farm: decoydb -store DIR -forward addrs=COLLECTOR,token=T -admin ADDR.
	lw        *pipeline.LogWriter
	farmStats *bus.StatsSink
	journal   *wal.Log
	spool     *wal.Log
	fwd       *relay.ForwardSink
	evbus     *bus.Bus
	farmAdmin *obs.Server
	farm      *core.Farm
	stopFarm  context.CancelFunc
	addrs     map[string]string // DBMS -> listener address

	sessionErrs atomic.Int64 // sessions the farm logged as failed
	quiesced    bool
	closed      bool
}

func (t *topology) logf(format string, args ...any) { log.Printf(format, args...) }

// startTopology starts a collector process, its store preloaded, then a
// farm forwarding to it. On error everything started is stopped.
func startTopology(dir string, p *probe, cfg collectorConfig) (*topology, error) {
	t := &topology{dir: dir, p: p, addrs: map[string]string{}}
	var err error
	if t.coll, err = startCollector(cfg); err != nil {
		return nil, err
	}
	if err := t.startFarm(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *topology) startFarm() error {
	fs := flag.NewFlagSet("decoydb", flag.ContinueOnError)
	busFlags := cliflags.RegisterBus(fs, "adaptive")
	fwdFlag := cliflags.RegisterForward(fs)
	storeFlag := cliflags.RegisterStore(fs)
	if err := fs.Parse([]string{
		"-store", filepath.Join(t.dir, "farm"),
		"-forward", "addrs=" + t.coll.relayAddr + ",token=" + relayToken,
	}); err != nil {
		return err
	}
	busOpts, err := busFlags.Options()
	if err != nil {
		return err
	}
	if t.lw, err = pipeline.NewLogWriter(filepath.Join(t.dir, "logs")); err != nil {
		return err
	}
	t.farmStats = &bus.StatsSink{}
	if t.journal, err = storeFlag.Open("journal", t.logf); err != nil {
		return err
	}
	if t.spool, err = storeFlag.Open("spool", t.logf); err != nil {
		return err
	}
	fwdBase := relay.ForwardOptions{Farm: "live", Logf: t.logf, SpoolWAL: spoolWrap{p: t.p, l: t.spool}}
	if t.fwd, err = fwdFlag.Sink(fwdBase); err != nil {
		return err
	}
	traces := obs.NewTraceRing(obs.TraceOptions{Verdicts: cliflags.TraceVerdicts(nil)})
	t.evbus = bus.New(busOpts,
		t.p.wrapSink("pipeline", t.lw, t.p.stampStart(&t.p.delivered)),
		t.farmStats,
		t.p.wrapSink("wal.journal", wal.NewSink(t.journal), nil),
		t.p.wrapSink("relay.forward", t.fwd, t.p.stampStart(&t.p.forwarded)),
		t.p.wrapSink("obs.trace", traces, nil),
	)

	reg := obs.NewRegistry()
	reg.Register(obs.BusSource(t.evbus))
	reg.Register(obs.KindSource(t.farmStats))
	reg.Register(obs.WALSource("journal", t.journal))
	reg.Register(obs.WALSource("spool", t.spool))
	reg.Register(obs.ForwardSource(t.fwd))
	t.farmAdmin = obs.NewServer(obs.ServerOptions{Registry: reg, Traces: traces, ReloadForward: t.fwd.SetEndpoints})
	if _, err := t.farmAdmin.Start("127.0.0.1:0"); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.stopFarm = cancel
	t.farm = core.NewFarm(core.RealClock{}, t.p.wrapSink("bus.record", t.evbus, t.p.stampStart(&t.p.recorded)), core.FarmOptions{
		Logf: func(format string, args ...any) {
			t.sessionErrs.Add(1)
			log.Printf(format, args...)
		},
	})
	deploy := farmDeployment()
	handlers := simnet.BuildHoneypots(deploy, fakeDataSeed)
	for _, info := range deploy.Instances {
		hp := &core.Honeypot{Info: info, Handler: t.p.wrapHandler("handler."+info.DBMS, handlers[info.ID()])}
		addr, err := t.farm.Listen(ctx, "127.0.0.1:0", hp)
		if err != nil {
			return err
		}
		t.addrs[info.DBMS] = addr.String()
	}
	return nil
}

// farmDeployment is the farm's honeypots: one instance of each service at
// the interaction level and configuration cmd/decoydb gives it.
func farmDeployment() *core.Deployment {
	deploy := &core.Deployment{}
	for _, dbms := range farmServices {
		info := core.Info{DBMS: dbms, Port: core.DefaultPort(dbms) + 10000, Config: core.ConfigDefault, Group: core.GroupSingle, VM: "live"}
		switch dbms {
		case core.Elastic, core.Redis:
			info.Level = core.Medium
		case core.MongoDB:
			info.Level = core.High
		}
		if dbms == core.Redis || dbms == core.MongoDB {
			info.Config = core.ConfigFakeData
		}
		deploy.Instances = append(deploy.Instances, info)
	}
	return deploy
}

// committed is the number of events the collector has acknowledged. It
// acknowledges a frame only once its sinks have taken it, so this counts
// events committed to the store.
func (t *topology) committed() uint64 { return t.fwd.Stats().EventsAcked }

// cpu is the CPU time the farm process, load generator included, and the
// collector process have used so far.
func (t *topology) cpu() (time.Duration, error) {
	coll, err := t.coll.cpu()
	return cpuTime() + coll, err
}

// drained reports whether every event the farm has recorded has reached
// the collector or been shed on the way, with no session half done.
func (t *topology) drained() bool {
	bs := t.evbus.Stats()
	if bs.Pending != 0 || bs.Delivered != bs.Enqueued {
		return false
	}
	if kc := t.farmStats.Counts(); kc.Connects != kc.Closes {
		return false
	}
	fs := t.fwd.Stats()
	return fs.EventsAcked+fs.Shed == bs.Delivered
}

// drain waits until drained, polling every millisecond.
func (t *topology) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !t.drained() {
		if time.Now().After(deadline) {
			return fmt.Errorf("capture path did not drain within %v: %s; %s", timeout, t.evbus.Stats(), t.fwd.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// counts are the final counters the accounting checks and the per-layer
// metrics read.
type counts struct {
	bus     bus.Stats
	farm    bus.KindCounts
	fwd     relay.Stats
	journal wal.Stats
	spool   wal.Stats
	coll    collectorReport
}

// quiesce stops the topology in the order the two binaries shut down and
// returns the counters of both sides: the farm as cmd/decoydb does on
// SIGTERM (listeners closed, sessions awaited, bus flushed and closed,
// forwarder flushed until the collector acknowledged everything, then
// closed), then the collector.
func (t *topology) quiesce() (counts, error) {
	t.closed = true
	t.shutdownFarm()
	c := counts{
		bus:     t.evbus.Stats(),
		farm:    t.farmStats.Counts(),
		fwd:     t.fwd.Stats(),
		journal: t.journal.Stats(),
		spool:   t.spool.Stats(),
	}
	ferr := t.closeFarm()
	var cerr error
	c.coll, cerr = t.coll.stop()
	return c, errors.Join(ferr, cerr)
}

// close stops whatever was started, farm first so nothing reconnects.
func (t *topology) close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.shutdownFarm()
	ferr := t.closeFarm()
	_, cerr := t.coll.stop()
	return errors.Join(ferr, cerr)
}

// shutdownFarm stops the farm's intake and drains it into the collector.
func (t *topology) shutdownFarm() {
	if t.quiesced {
		return
	}
	t.quiesced = true
	if t.stopFarm != nil {
		t.stopFarm()
	}
	if t.farm != nil {
		t.farm.Shutdown()
	}
	if t.evbus != nil {
		if err := t.evbus.Close(); err != nil {
			t.logf("event transport: %v", err)
		}
	}
	if t.fwd != nil {
		t.fwd.Flush()
	}
}

// closeFarm closes the forwarder, then the logs it journals into.
func (t *topology) closeFarm() error {
	var errs []error
	if t.fwd != nil {
		errs = append(errs, t.fwd.Close())
	}
	for _, l := range []*wal.Log{t.spool, t.journal} {
		if l != nil {
			errs = append(errs, l.Close())
		}
	}
	if t.lw != nil {
		errs = append(errs, t.lw.Close())
	}
	if t.farmAdmin != nil {
		errs = append(errs, t.farmAdmin.Close())
	}
	return errors.Join(errs...)
}
