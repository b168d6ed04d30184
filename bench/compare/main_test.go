package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

// runs builds a set of run records of one workload whose metric takes the
// given values, one run per value.
func runs(workload, name, unit string, vals ...float64) []record {
	var out []record
	for i, v := range vals {
		line := fmt.Sprintf(`{"workload":%q,"seed":%d,"correct":true,"metrics":{%q:{"value":%v,"unit":%q}}}`,
			workload, i+1, name, v, unit)
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}

var testMetrics = map[string]metric{
	"session_p50_ms": {Name: "session_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	"sessions_per_s": {Name: "sessions_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
}

func verdict(t *testing.T, name, unit string, base, head []float64) (row, []string) {
	t.Helper()
	rows, problems := judge([]metric{testMetrics[name]}, runs("brute", name, unit, base...), runs("brute", name, unit, head...))
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	return rows[0], problems
}

func TestJudge(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10, 10.1, 9.9}
	cases := []struct {
		name, metric, unit string
		base, head         []float64
		want               string
		problems           int
	}{
		{"same", "session_p50_ms", "ms", steady, steady, "no change", 0},
		{"slower", "session_p50_ms", "ms", steady, scale(steady, 1.2), "REGRESSION", 1},
		{"faster", "session_p50_ms", "ms", steady, scale(steady, 0.8), "gain", 0},
		{"higher rate is better", "sessions_per_s", "1/s", steady, scale(steady, 1.2), "gain", 0},
		{"lower rate regresses", "sessions_per_s", "1/s", steady, scale(steady, 0.8), "REGRESSION", 1},
		{"noisy base", "session_p50_ms", "ms", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, steady, "unresolved", 0},
		{"noisy base but every run better", "session_p50_ms", "ms", []float64{20, 30, 22, 28, 25, 21, 29, 24, 26, 23}, steady, "gain", 0},
		{"within the bound", "session_p50_ms", "ms", steady, scale(steady, 1.05), "no change", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, problems := verdict(t, c.metric, c.unit, c.base, c.head)
			if r.verdict != c.want || len(problems) != c.problems {
				t.Errorf("verdict %q with problems %v, want %q with %d", r.verdict, problems, c.want, c.problems)
			}
		})
	}
}

func TestWinsCountAlternatingPairs(t *testing.T) {
	r, _ := verdict(t, "session_p50_ms", "ms", []float64{10, 10, 10, 10}, []float64{9, 10, 11, 9})
	if r.wins != 2 || r.pairs != 4 {
		t.Errorf("wins %d of %d, want 2 of 4 (a tie counts for neither)", r.wins, r.pairs)
	}
}

// TestOnlyListedMetricsJudged checks that compare judges the metrics
// BENCHMARK.json lists, and nothing else: a listed metric the runs lack is
// a problem, and a metric it does not list has no row.
func TestOnlyListedMetricsJudged(t *testing.T) {
	base := runs("brute", "events_per_s", "1/s", 15, 15.2)
	head := runs("brute", "events_per_s", "1/s", 15.1, 15)
	rows, problems := judge([]metric{testMetrics["session_p50_ms"]}, base, head)
	if len(rows) != 0 {
		t.Errorf("rows %+v, want none", rows)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "brute session_p50_ms: not measured") {
		t.Errorf("problems %v, want session_p50_ms not measured", problems)
	}
}

func TestParseRuns(t *testing.T) {
	out := "bench workload=brute seed=3 trace=false\n  setup_s 0.3 s\n" +
		`run {"workload":"brute","seed":3,"trace":false,"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.3,"unit":"s"}}}` + "\n" +
		`{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.3,"unit":"s"}}}` + "\n"
	recs, err := parseRuns([]byte(out))
	if err != nil || len(recs) != 1 || recs[0].Seed != 3 || recs[0].Metrics["setup_s"].Value != 0.3 {
		t.Errorf("parsed %+v, %v", recs, err)
	}
	recs, err = parseRuns([]byte(`[{"workload":"brute-query","seed":1,"trace":true},{"workload":"brute-query","seed":1}]`))
	if err != nil || len(recs) != 2 || !recs[0].Trace {
		t.Errorf("parsed %+v, %v", recs, err)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
