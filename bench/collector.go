package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"runtime"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/classify"
	"decoydb/internal/cliflags"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/obs"
	"decoydb/internal/relay"
	"decoydb/internal/simnet"
	"decoydb/internal/stream"
	"decoydb/internal/wal"
)

// The collector runs in a process of its own, as dbcollect runs apart
// from the farms: sharing one heap would make every honeypot session pay
// for collecting the collector's store and snapshots. The farm process
// starts it with collectorEnv set and reads its addresses from the first
// line of its output. Each line the farm process then writes to its
// standard input asks for its CPU time, which it answers with a line of
// its own. Closing its standard input stops it; its report is the last
// line.

// collectorEnv carries a collectorConfig to the collector process.
const collectorEnv = "DECOYDB_BENCH_COLLECTOR"

// relayToken is the shared secret between the farm and the collector.
const relayToken = "bench-token"

type collectorConfig struct {
	Seed   int64     `json:"seed"`
	Dir    string    `json:"dir"`
	Window time.Time `json:"window"`
	Trace  bool      `json:"trace"`
}

// collectorReport is what the collector process hands back at exit. Times
// are wall-clock nanoseconds, comparable across the two processes.
type collectorReport struct {
	Commits    []wallStamp          `json:"commits"` // Close events committed by the store
	LastCommit int64                `json:"last_commit"`
	Collector  relay.CollectorStats `json:"collector"`
	Committed  uint64               `json:"committed"` // events the collector's stats sink counted
	Stored     int64                `json:"stored"`    // store events beyond the preload
	WAL        wal.Stats            `json:"wal"`
	Stream     stream.Stats         `json:"stream"`
	Exploiting []netip.Addr         `json:"exploiting"` // live sources the analyzer calls exploiters
	Live       int                  `json:"live"`       // live sources in the store
	InWindow   int                  `json:"in_window"`  // ... active on a day since the collector started
	Queries    []float64            `json:"queries"`    // server-side /query times, ms
	Spans      []span               `json:"spans"`      // Start and End in wall-clock ns
	Runtime    runtimeStats         `json:"runtime"`
}

type wallStamp struct {
	Src netip.AddrPort `json:"src"`
	At  int64          `json:"at"`
}

// runtimeStats are one process's Go runtime figures.
type runtimeStats struct {
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
	GCPauseMax float64 `json:"gc_pause_max_ms"`
	RSSPeakMB  float64 `json:"rss_peak_mb"`
}

func readRuntime(heapPeakMB float64) runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var pause uint64
	for _, ns := range ms.PauseNs {
		pause = max(pause, ns)
	}
	return runtimeStats{GCCPUFrac: ms.GCCPUFraction, HeapPeakMB: heapPeakMB, GCPauseMax: float64(pause) / 1e6, RSSPeakMB: rssPeakMB()}
}

// collectorSide is dbcollect -store DIR -stream -admin ADDR, with the
// probe's wrappers around the store, the analyzer, the trace ring and
// /query.
type collectorSide struct {
	p         *probe
	store     *evstore.Store
	stats     *bus.StatsSink
	journal   *wal.Log
	analyzer  *stream.Analyzer
	coll      *relay.Collector
	ln        net.Listener
	served    chan error
	admin     *obs.Server
	adminAddr string
	preloaded int64
	startDay  int // the store window's day the collector started on
}

func startCollectorSide(cfg collectorConfig, p *probe) (*collectorSide, error) {
	c := &collectorSide{p: p}
	if err := c.start(cfg); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *collectorSide) start(cfg collectorConfig) error {
	fs := flag.NewFlagSet("dbcollect", flag.ContinueOnError)
	storeFlag := cliflags.RegisterStore(fs)
	streamFlag := cliflags.RegisterStream(fs)
	if err := fs.Parse([]string{"-store", cfg.Dir, "-stream"}); err != nil {
		return err
	}
	pop, err := simnet.BuildPopulation(cfg.Seed, simnet.DefaultScale, core.ExperimentDays, geoip.Default())
	if err != nil {
		return err
	}
	// dbcollect pins the window to core.ExperimentStart; this one ends on
	// the run's day so live events reach the day and hour indexes.
	c.store = evstore.NewSharded(cfg.Window, core.ExperimentDays, geoip.Default(), 0)
	c.startDay = int(time.Since(cfg.Window) / (24 * time.Hour))
	c.stats = &bus.StatsSink{}
	if c.preloaded, err = preload(c.store, pop, cfg.Seed); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if c.journal, err = storeFlag.Open("collector", log.Printf); err != nil {
		return err
	}
	farms := map[string]relay.FarmMark{}
	if _, err := c.store.AttachWAL(c.journal, func(tag []byte) {
		if farm, epoch, seq, ok := relay.DecodeSourceTag(tag); ok {
			farms[farm] = relay.FarmMark{Epoch: epoch, LastSeq: seq}
		}
	}); err != nil {
		return err
	}
	c.analyzer = streamFlag.Analyzer()
	traces := obs.NewTraceRing(obs.TraceOptions{Verdicts: cliflags.TraceVerdicts(c.analyzer)})
	c.coll, err = relay.NewCollector(relay.CollectorOptions{Token: relayToken, Farms: farms, Logf: log.Printf},
		c.p.wrapSink("evstore", c.store, c.p.stampCommit),
		c.stats,
		c.p.wrapSink("stream", c.analyzer, nil),
		c.p.wrapSink("obs.trace", traces, nil),
	)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	reg.Register(obs.CollectorSource(c.coll))
	reg.Register(obs.KindSource(c.stats))
	reg.Register(obs.StoreSource(c.store))
	reg.Register(obs.WALSource("collector", c.journal))
	c.admin = obs.NewServer(obs.ServerOptions{
		Registry: reg,
		Traces:   traces,
		Stream:   c.analyzer,
		Query:    c.p.wrapHTTP("obs.query", obs.NewQueryHandler(obs.QueryOptions{Store: c.store})),
	})
	addr, err := c.admin.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	c.adminAddr = addr.String()
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	c.served = make(chan error, 1)
	go func() { c.served <- c.coll.Serve(c.ln) }()
	return nil
}

// close shuts down as dbcollect does: stop serving, flush, close the
// journal.
func (c *collectorSide) close() error {
	var errs []error
	if c.coll != nil {
		errs = append(errs, c.coll.Close())
		c.ln.Close()
		errs = append(errs, <-c.served)
	} else if c.ln != nil {
		c.ln.Close()
	}
	if c.store != nil {
		c.store.Flush()
	}
	if c.journal != nil {
		errs = append(errs, c.journal.Close())
	}
	if c.admin != nil {
		errs = append(errs, c.admin.Close())
	}
	return errors.Join(errs...)
}

// report gathers what the farm process needs, once the farm has stopped
// forwarding and the collector has closed.
func (c *collectorSide) report(heapPeakMB float64) collectorReport {
	r := collectorReport{
		LastCommit: c.p.wall(c.p.lastCommit.Load()),
		Collector:  c.coll.Stats(),
		Committed:  c.stats.Counts().Total(),
		Stored:     c.store.Events() - c.preloaded,
		WAL:        c.journal.Stats(),
		Stream:     c.analyzer.Stats(),
		Queries:    c.p.queryTimes(),
	}
	for _, s := range c.p.committed.take() {
		r.Commits = append(r.Commits, wallStamp{Src: s.src, At: c.p.wall(s.at)})
	}
	loopback := netip.MustParsePrefix("127.0.0.0/8")
	for _, rec := range c.store.IPs() {
		if !loopback.Contains(rec.Addr) {
			continue
		}
		r.Live++
		if rec.ActiveDaysMask(evstore.Query{})>>c.startDay != 0 {
			r.InWindow++
		}
		if v, ok := c.analyzer.Verdict(rec.Addr); ok && v == classify.Exploiting {
			r.Exploiting = append(r.Exploiting, rec.Addr)
		}
	}
	if c.p.tracing {
		for _, s := range c.p.takeSpans() {
			s.Start, s.End = c.p.wall(s.Start), c.p.wall(s.End)
			r.Spans = append(r.Spans, s)
		}
	}
	r.Runtime = readRuntime(heapPeakMB)
	return r
}

// runCollector is the collector process: start, announce the relay and
// admin addresses, serve until standard input closes, report.
func runCollector(env string, stdin io.Reader, stdout io.Writer) error {
	var cfg collectorConfig
	if err := json.Unmarshal([]byte(env), &cfg); err != nil {
		return fmt.Errorf("%s: %w", collectorEnv, err)
	}
	heap := startHeapSampler()
	p := newProbe(cfg.Trace)
	c, err := startCollectorSide(cfg, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ready %s %s\n", c.ln.Addr(), c.adminAddr)
	for sc := bufio.NewScanner(stdin); sc.Scan(); {
		fmt.Fprintf(stdout, "cpu %d\n", cpuTime())
	}
	if err := c.close(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(c.report(heap.stop()))
}

// collectorProc is the farm process's handle on a collector process.
type collectorProc struct {
	cmd       *exec.Cmd
	stdin     io.WriteCloser
	out       *bufio.Reader
	relayAddr string
	adminAddr string
}

// startCollector starts a collector process and waits until it serves.
func startCollector(cfg collectorConfig) (*collectorProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), collectorEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &collectorProc{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	line, err := c.out.ReadString('\n')
	if _, serr := fmt.Sscanf(line, "ready %s %s", &c.relayAddr, &c.adminAddr); err != nil || serr != nil {
		stdin.Close()
		werr := cmd.Wait()
		return nil, fmt.Errorf("collector process did not start: %q %v %v", line, err, werr)
	}
	return c, nil
}

// cpu asks the collector process for the CPU time it has used so far.
func (c *collectorProc) cpu() (time.Duration, error) {
	if _, err := io.WriteString(c.stdin, "cpu\n"); err != nil {
		return 0, err
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	var ns int64
	if _, err := fmt.Sscanf(line, "cpu %d", &ns); err != nil {
		return 0, fmt.Errorf("collector CPU time: %q: %w", line, err)
	}
	return time.Duration(ns), nil
}

// stop closes the collector's input, reads its report and waits for it to
// exit.
func (c *collectorProc) stop() (collectorReport, error) {
	var r collectorReport
	c.stdin.Close()
	derr := json.NewDecoder(c.out).Decode(&r)
	werr := c.cmd.Wait()
	if werr != nil {
		return r, fmt.Errorf("collector process: %w", werr)
	}
	if derr != nil {
		return r, fmt.Errorf("collector report: %w", derr)
	}
	return r, nil
}
