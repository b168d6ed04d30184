// Command bench is decoydb's end-to-end benchmark. It wires the live
// capture topology from the repository's public constructors, in the
// order cmd/decoydb and cmd/dbcollect use them — a honeypot farm
// (core.Farm → adaptive bus → log writer, stats, journal WAL, relay
// forwarder with a WAL spool, trace ring) forwarding over loopback TCP to
// a collector (relay.Collector → WAL-backed evstore, stats, stream
// analyzer, trace ring, /query) — drives it with seeded, paper-shaped
// attack traffic over real sockets, checks the outputs, and prints every
// metric by name with its unit.
//
// From the repository root:
//
//	bash bench/run.sh --workload brute --seed 1 --seconds 45 --trace 0
//
// or, from bench/:
//
//	go run . -workload brute -seed 1 [-seconds 45] [-trace 0|1|FILE]
//	go run . -seed 1 [-o runs.json] [-trace FILE]   every workload, each in its own process
//	go run . -summarize FILE                         per-layer times of a traced run
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// tracing on the per-layer metrics. The line before it, starting "run ",
// repeats the result with the workload, seed and every measured value, for
// bench/compare.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// The metrics of the live workloads, in BENCHMARK.json's order.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"cpu_us_per_session", "us"},
		{"rss_peak_mb", "MB"},
	}
	// unbounded are end-to-end rates and latencies that vary too much from
	// run to run on the reference machine to be bounded (see README); they
	// are reported with the per-layer metrics, and measured in every run.
	unbounded = []metricDef{
		{"sessions_per_s", "1/s"},
		{"events_per_s", "1/s"},
		{"session_p50_ms", "ms"},
		{"session_p99_ms", "ms"},
		{"ingest_lag_p50_ms", "ms"},
		{"ingest_lag_p99_ms", "ms"},
		{"query_p50_ms", "ms"},
	}
	perLayer = append(append([]metricDef(nil), unbounded...), []metricDef{
		{"loadgen.late_p50_ms", "ms"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.backlog_max", "count"},
		{"handler.busy_s", "s"},
		{"handler.p50_us", "us"},
		{"handler.p99_us", "us"},
		{"bus.record_p99_us", "us"},
		{"bus.queue_wait_p50_ms", "ms"},
		{"bus.queue_wait_p99_ms", "ms"},
		{"bus.mean_batch", "count"},
		{"pipeline.busy_s", "s"},
		{"wal.journal.busy_s", "s"},
		{"wal.spool.append_p99_us", "us"},
		{"wal.collector.append_mean_us", "us"},
		{"wal.journal.bytes_per_event", "B"},
		{"wal.spool.bytes_per_event", "B"},
		{"wal.collector.bytes_per_event", "B"},
		{"relay.forward.busy_s", "s"},
		{"relay.forward.p99_us", "us"},
		{"relay.transit_p50_ms", "ms"},
		{"relay.transit_p99_ms", "ms"},
		{"relay.ack_rtt_mean_ms", "ms"},
		{"relay.wire_bytes_per_event", "B"},
		{"relay.compression_ratio", "ratio"},
		{"evstore.busy_s", "s"},
		{"evstore.commit_p99_us", "us"},
		{"evstore.snapshot_ms", "ms"},
		{"stream.busy_s", "s"},
		{"stream.p99_us", "us"},
		{"stream.refits", "count"},
		{"obs.trace.busy_s", "s"},
		{"runtime.farm.gc_cpu_frac", "ratio"},
		{"runtime.farm.heap_peak_mb", "MB"},
		{"runtime.farm.gc_pause_max_ms", "ms"},
		{"runtime.collector.gc_cpu_frac", "ratio"},
		{"runtime.collector.heap_peak_mb", "MB"},
		{"runtime.collector.gc_pause_max_ms", "ms"},
	}...)
)

// workloadNames are the workloads in run order.
var workloadNames = []string{"brute", "brute-query"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time
	trace    bool
	spans    string // file the traced run writes its spans to
	dir      string // scratch directory for logs and WALs

	warmup time.Duration
	setups int // set-ups per run; the median is reported
}

func defaultConfig() config {
	return config{seed: 1, seconds: 45, warmup: 2 * time.Second, setups: 9}
}

// result is what one workload run measured and checked.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	values    map[string]float64
	samples   map[string]int
	checks    []check
	notes     []string
	spans     []span
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newResult(cfg config) *result {
	return &result{workload: cfg.workload, seed: cfg.seed, traced: cfg.trace,
		values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric and the number of samples it rests on (0 when it
// is not a statistic of samples).
func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// reported are the metrics the result's JSON line carries.
func (r *result) reported() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// jsonMetric and jsonResult are the benchmark's output contract.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runRecord is a jsonResult with what bench/compare needs to pair runs,
// and every value the run measured, reported or not.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	jsonResult
	Values map[string]float64 `json:"values"`
}

// finish checks that every reported metric was measured and builds the
// output record.
func (r *result) finish() runRecord {
	rec := runRecord{Workload: r.workload, Seed: r.seed, Trace: r.traced,
		jsonResult: jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}},
		Values:     map[string]float64{}}
	for k, v := range r.values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			rec.Values[k] = v
		}
	}
	var missing []string
	for _, m := range r.reported() {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			v = 0
		}
		rec.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		r.check("metrics", false, "not measured: %s", strings.Join(missing, ", "))
	}
	rec.Attempted = max(rec.Attempted, 1)
	rec.Correct = r.correct()
	return rec
}

// print writes the human-readable report, then the run record line and
// the JSON result line.
func (r *result) print(w io.Writer, rec runRecord) error {
	fmt.Fprintf(w, "bench workload=%s seed=%d trace=%v\n", r.workload, r.seed, r.traced)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	printed := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			v, ok := r.values[m.name]
			if !ok || printed[m.name] {
				continue
			}
			printed[m.name] = true
			n := ""
			if c := r.samples[m.name]; c > 0 {
				n = fmt.Sprintf("n=%d", c)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.name, v, m.unit, n)
		}
	}
	tw.Flush()
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %s: %s — %s\n", c.name, status, c.detail)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run %s\n", line)
	line, err = json.Marshal(rec.jsonResult)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix("bench: ")
	if env := os.Getenv(collectorEnv); env != "" {
		log.SetPrefix("bench collector: ")
		if err := runCollector(env, os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed the workload's inputs are drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds of a live workload")
	trace := fs.String("trace", "0", "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics; FILE: traced, spans written to FILE as JSON lines")
	out := fs.String("o", "", "all workloads: write every run's record to this JSON file")
	sum := fs.String("summarize", "", "print per-layer count, busy and self time of a spans FILE and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sum != "" {
		if err := summarize(stdout, *sum); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	switch *trace {
	case "0", "":
	case "1":
		cfg.trace = true
	default:
		cfg.trace, cfg.spans = true, *trace
	}
	if cfg.workload == "" {
		return runAll(cfg, *trace, *out, stdout)
	}
	if cfg.seconds <= 0 {
		log.Print("-seconds must be positive")
		return 2
	}
	cfg.dir = filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(cfg.dir)
	res, err := runWorkload(cfg)
	if err != nil {
		log.Printf("%s: %v", cfg.workload, err)
		return 1
	}
	rec := res.finish()
	if err := res.print(stdout, rec); err != nil {
		log.Print(err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*result, error) {
	spec, ok := liveWorkloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
	}
	return runLive(cfg, spec)
}

// runAll runs every workload in its own process, so each reports its own
// peak memory: untraced and then traced, the difference being the tracing
// overhead.
func runAll(cfg config, trace, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	var recs []runRecord
	failed := false
	for _, w := range workloadNames {
		modes := []string{"0", "1"}
		if trace != "0" && trace != "1" && trace != "" {
			modes[1] = fmt.Sprintf("%s.%s.jsonl", strings.TrimSuffix(trace, ".jsonl"), w)
		}
		var pair []runRecord
		for _, mode := range modes {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", mode}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = io.MultiWriter(&buf, stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			rec, perr := parseRun(&buf)
			if perr != nil {
				log.Printf("%s -trace %s: %v (%v)", w, mode, perr, runErr)
				failed = true
				continue
			}
			failed = failed || runErr != nil || !rec.Correct
			pair = append(pair, rec)
		}
		recs = append(recs, pair...)
		if len(pair) == 2 {
			printOverhead(stdout, pair[0], pair[1])
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			log.Print(err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stdout, "bench: some runs failed their checks")
		return 1
	}
	return 0
}

// parseRun extracts the run record from a run's standard output.
func parseRun(r io.Reader) (runRecord, error) {
	var rec runRecord
	found := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "run "); ok {
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return rec, err
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	if !found {
		return rec, errors.New("no run record in the output")
	}
	return rec, nil
}

// printOverhead sets the end-to-end values of a traced run beside the
// untraced run's: the difference is the tracing overhead.
func printOverhead(w io.Writer, untraced, traced runRecord) {
	fmt.Fprintf(w, "tracing overhead, %s: untraced, traced, change\n", untraced.Workload)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range append(append([]metricDef(nil), endToEnd...), unbounded...) {
		u, t := untraced.Values[m.name], traced.Values[m.name]
		if u == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%s\t%+.1f%%\n", m.name, u, t, m.unit, 100*(t-u)/u)
	}
	tw.Flush()
}
