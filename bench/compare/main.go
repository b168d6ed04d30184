// Command compare judges two sets of benchmark runs, a parent commit's
// (base) and a change's (head), one row per workload and end-to-end
// metric:
//
//   - each side's median and quartiles;
//   - the fraction of alternating pairs (the i-th base run against the
//     i-th head run) the head wins, ties counting for neither side;
//   - a verdict: "unresolved" when the base's own spread, the distance
//     between its quartiles as a share of its median, exceeds the
//     metric's bound (unless every head run beats every base run);
//     "REGRESSION" when the head's median is worse than the base's by
//     more than the bound; "gain" when the head wins at least nine pairs
//     in ten and the medians differ by more than the base's spread;
//     otherwise "no change".
//
// The metrics, their bounds and directions are BENCHMARK.json's end-to-end
// metrics. compare exits non-zero on any regression, on a run that failed
// its checks, and on a metric a run set lacks.
//
// Each input file is either a run's standard output (its "run " record
// line is read) or the JSON array bench -o writes. Only untraced runs are
// compared.
//
//	go run ./compare -bench ../BENCHMARK.json -base 'base/*.out' -head 'head/*.out'
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// record is the run record the benchmark prints after "run ".
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metric is one BENCHMARK.json end-to-end entry.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("compare: ")
	benchJSON := flag.String("bench", "../BENCHMARK.json", "benchmark definition with the metrics' bounds")
	base := flag.String("base", "", "glob of the parent commit's run outputs")
	head := flag.String("head", "", "glob of the change's run outputs")
	flag.Parse()
	if *base == "" || *head == "" {
		flag.Usage()
		os.Exit(2)
	}
	metrics, err := loadMetrics(*benchJSON)
	if err != nil {
		log.Fatal(err)
	}
	b, err := loadRuns(*base)
	if err != nil {
		log.Fatal(err)
	}
	h, err := loadRuns(*head)
	if err != nil {
		log.Fatal(err)
	}
	rows, problems := judge(metrics, b, h)
	printRows(os.Stdout, rows)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func loadMetrics(path string) ([]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRuns reads every untraced run record from the files matching glob,
// in file order.
func loadRuns(glob string) ([]record, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %s", glob)
	}
	sort.Strings(files)
	var out []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		recs, err := parseRuns(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range recs {
			if !r.Trace {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// parseRuns reads a JSON array of records, or the "run " lines of a run's
// output.
func parseRuns(b []byte) ([]record, error) {
	if t := bytes.TrimSpace(b); len(t) > 0 && t[0] == '[' {
		var recs []record
		return recs, json.Unmarshal(t, &recs)
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "run "); ok {
			var r record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, err
			}
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (its default,
// exclusive method), and statistics.median.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(1), med, at(3)
}

// row is one workload × metric judgement.
type row struct {
	workload, metric, unit string
	base, head             [3]float64 // q1, median, q3
	baseSpread             float64
	wins, pairs            int
	verdict                string
}

// judge compares base and head run sets and returns the rows plus every
// regression, failed run and missing metric.
func judge(metrics []metric, base, head []record) ([]row, []string) {
	var rows []row
	var problems []string
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var workloads []string
	for w := range bw {
		if _, ok := hw[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		b, h := bw[w], hw[w]
		for _, r := range append(append([]record(nil), b...), h...) {
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: run failed its checks", w, r.Seed))
			}
		}
		for _, m := range metrics {
			bv, bok := values(b, m.Name)
			hv, hok := values(h, m.Name)
			if !bok || !hok {
				problems = append(problems, fmt.Sprintf("%s %s: not measured in every run", w, m.Name))
				continue
			}
			rows = append(rows, judgeMetric(w, m, bv, hv))
			if r := rows[len(rows)-1]; r.verdict == "REGRESSION" {
				problems = append(problems, fmt.Sprintf("%s %s: head median %.6g is worse than base %.6g by more than %.0f%%",
					w, m.Name, r.head[1], r.base[1], 100*m.Bound))
			}
		}
	}
	return rows, problems
}

// values returns the metric's value in each run, and whether every run
// has it.
func values(rs []record, name string) ([]float64, bool) {
	var out []float64
	for _, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out = append(out, v.Value)
	}
	return out, true
}

func judgeMetric(workload string, m metric, base, head []float64) row {
	r := row{workload: workload, metric: m.Name, unit: m.Unit}
	r.base[0], r.base[1], r.base[2] = quartiles(base)
	r.head[0], r.head[1], r.head[2] = quartiles(head)
	r.baseSpread = (r.base[2] - r.base[0]) / math.Abs(r.base[1])
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	r.pairs = min(len(base), len(head))
	for i := 0; i < r.pairs; i++ {
		if better(head[i], base[i]) {
			r.wins++
		}
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, hv := range head {
		for _, bv := range base {
			allBetter = allBetter && better(hv, bv)
		}
	}
	worse := (r.head[1] - r.base[1]) / math.Abs(r.base[1])
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case r.baseSpread > m.Bound && !allBetter:
		r.verdict = "unresolved"
	case worse > m.Bound:
		r.verdict = "REGRESSION"
	case r.pairs > 0 && 10*r.wins >= 9*r.pairs && math.Abs(r.head[1]-r.base[1]) > r.base[2]-r.base[0]:
		r.verdict = "gain"
	case allBetter:
		r.verdict = "better in every run"
	default:
		r.verdict = "no change"
	}
	return r
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tbase spread\thead wins\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g]\t%.1f%%\t%d/%d\t%s\n",
			r.workload, r.metric, r.base[1], r.base[0], r.base[2], r.unit, r.head[1], r.head[0], r.head[2],
			100*r.baseSpread, r.wins, r.pairs, r.verdict)
	}
	tw.Flush()
}
