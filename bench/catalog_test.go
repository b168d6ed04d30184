package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark's runner
// reads, in step with what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := liveWorkloads[w.Name]; !ok {
			t.Errorf("workload %q is not a live workload", w.Name)
		}
	}
	var live []string
	for name := range liveWorkloads {
		live = append(live, name)
	}
	sort.Strings(names)
	sort.Strings(live)
	if !reflect.DeepEqual(names, live) {
		t.Errorf("workloads %v, want %v", names, live)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, want %v", layers, perLayer)
	}
}
